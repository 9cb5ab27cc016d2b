"""Deterministic fault injector.

Turns a :class:`~repro.faults.plan.FaultPlan` into per-site yes/no (or
magnitude) decisions.  Each decision hashes ``(seed, kind, site, n)`` where
``n`` counts prior probes of that exact (kind, site) pair -- so retries of
the same command see fresh, but reproducible, draws, and decisions at one
site are independent of how many other sites were probed first.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .plan import FaultKind, FaultPlan


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fault the injector fired."""

    kind: FaultKind
    site: str
    probe: int  # which draw at this (kind, site) fired


class FaultInjector:
    """Stateful consumer of a :class:`FaultPlan`.

    One injector per run: its budget and per-site probe counters accumulate
    across the whole execution (including retries and strategy
    degradations), which is what keeps chaos runs bounded and reproducible.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._probes: dict[tuple[FaultKind, str], int] = {}
        self.injected: list[InjectedFault] = []
        self.retries = 0
        self.reissues = 0
        self._budget_left = plan.budget

    # -- core decision ------------------------------------------------------
    def _uniform(self, kind: FaultKind, site: str, probe: int) -> float:
        payload = f"{self.plan.seed}:{kind.value}:{site}:{probe}".encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def fire(self, kind: FaultKind, site: str) -> bool:
        """Should `kind` fire at `site` right now?  Consumes one probe."""
        rate = self.plan.rate_for(kind, site)
        if rate <= 0.0 or self._budget_left <= 0:
            return False
        key = (kind, site)
        probe = self._probes.get(key, 0)
        self._probes[key] = probe + 1
        if self._uniform(kind, site, probe) < rate:
            self._budget_left -= 1
            self.injected.append(InjectedFault(kind, site, probe))
            return True
        return False

    # -- convenience per-kind probes ---------------------------------------
    def transfer_fault(self, site: str, h2d: bool) -> bool:
        return self.fire(FaultKind.H2D_FAIL if h2d else FaultKind.D2H_FAIL, site)

    def kernel_fault(self, site: str) -> bool:
        return self.fire(FaultKind.KERNEL_FAIL, site)

    def stall(self, site: str) -> float | None:
        """Stall factor to apply at `site`, or None."""
        if self.fire(FaultKind.STREAM_STALL, site):
            return self.plan.stall_factor
        return None

    def host_slowdown(self, site: str) -> float | None:
        if self.fire(FaultKind.HOST_SLOWDOWN, site):
            return self.plan.host_slowdown_factor
        return None

    def oom(self, site: str) -> bool:
        return self.fire(FaultKind.DEVICE_OOM, site)

    def device_loss(self, site: str) -> bool:
        """Does the device probed at `site` (``device.<k>...``) drop out?"""
        return self.fire(FaultKind.DEVICE_LOSS, site)

    # -- recovery bookkeeping ----------------------------------------------
    def note_retry(self, site: str) -> None:
        self.retries += 1

    def note_reissue(self, site: str) -> None:
        self.reissues += 1

    # -- stats --------------------------------------------------------------
    @property
    def faults_injected(self) -> int:
        return len(self.injected)

    @property
    def budget_left(self) -> int:
        return self._budget_left

    def by_kind(self) -> dict[FaultKind, int]:
        out: dict[FaultKind, int] = {}
        for f in self.injected:
            out[f.kind] = out.get(f.kind, 0) + 1
        return out

    def snapshot(self) -> dict[str, int]:
        """Flat metrics dict (stable keys; suitable for RunResult/logs)."""
        out = {"faults_injected": self.faults_injected,
               "retries": self.retries, "reissues": self.reissues}
        for kind, n in sorted(self.by_kind().items(), key=lambda kv: kv[0].value):
            out[f"faults.{kind.value}"] = n
        return out


def as_injector(faults: "FaultPlan | FaultInjector | None") -> FaultInjector | None:
    """Normalize a faults argument: plans get a fresh injector, injectors
    pass through (so callers can share budget across phases), None stays."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)
