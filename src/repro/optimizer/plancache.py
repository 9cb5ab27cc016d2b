"""The content-addressed compiled-plan cache.

A bounded LRU keyed by sha256 digests (:func:`repro.optimizer.fingerprint
.digest`) of plan hash + stats digest + calibration / cluster
fingerprints.  Three artifact families share one cache:

* ``decision:*`` -- whole optimizer decisions (strategy choice + prices),
* ``compiled:*`` -- the Executor's per-(plan, stats, strategy) size map
  and fusion result (skips re-planning on repeat runs),
* ``serve:*``    -- fully-priced serve dispatches (makespan + timeline),
  so a repeat batch skips planning, analysis, and simulation entirely.

Every entry stores a checksum of its value at ``put`` time; ``get``
re-verifies it, so a corrupted entry (bit-flip, in-place mutation by a
buggy caller) is *detected and treated as a miss*, never served.
Counters (hits / misses / evictions / invalidations / corruptions) feed
the serve metrics and the CI cache-hit-rate gate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from .fingerprint import canonical, digest


@dataclass
class _Entry:
    value: Any
    checksum: str


def _checksum(value: Any) -> str:
    return digest("entry", canonical(value))


class PlanCache:
    """Bounded LRU of content-addressed planning artifacts.

    **Ownership: process-private.**  The cache is plain in-process state --
    no locks, no shared memory -- so it must never be shared across
    processes.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.corruptions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key(*parts: Any) -> str:
        """Build a content-addressed key from fingerprint parts."""
        return digest(*parts)

    def get(self, key: str) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if _checksum(entry.value) != entry.checksum:
            # corruption: drop the entry and report a miss, never serve it
            del self._entries[key]
            self.corruptions += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.value

    def put(self, key: str, value: Any) -> None:
        if key in self._entries:
            del self._entries[key]
        self._entries[key] = _Entry(value=value, checksum=_checksum(value))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry (e.g. after its strategy faulted and degraded)."""
        if key in self._entries:
            del self._entries[key]
            self.invalidations += 1
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Deterministic counter snapshot (rounded for JSON byte-identity)."""
        return {
            "cache.size": len(self._entries),
            "cache.capacity": self.capacity,
            "cache.hits": self.hits,
            "cache.misses": self.misses,
            "cache.evictions": self.evictions,
            "cache.invalidations": self.invalidations,
            "cache.corruptions": self.corruptions,
            "cache.hit_rate": round(self.hit_rate, 6),
        }

    # test hook: deliberately corrupt an entry's stored value in place so
    # the checksum no longer matches (simulates storage rot)
    def _corrupt(self, key: str) -> None:
        entry = self._entries[key]
        entry.value = ("corrupted", entry.value)
