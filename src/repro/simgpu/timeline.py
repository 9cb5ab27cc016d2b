"""Simulated-time event log.

Every strategy run produces a :class:`Timeline`; the breakdown figures
(Fig 9, Fig 10) are computed from these events rather than from ad-hoc
arithmetic, so the accounting is consistent across strategies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable


class EventKind(enum.Enum):
    H2D = "h2d"
    D2H = "d2h"
    KERNEL = "kernel"
    HOST = "host"
    SYNC = "sync"


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One simulated interval.  Slotted: serve-scale runs log hundreds of
    thousands of these, and a per-event ``__dict__`` was the single
    biggest allocation churn in the DES hot loop (BENCH_devices.json
    tracks the resulting events/sec)."""

    start: float
    end: float
    kind: EventKind
    tag: str
    stream: int = 0
    nbytes: float = 0.0
    #: SMs granted to this event while it ran (KERNEL events only; 0 when
    #: unknown, e.g. hand-built timelines)
    sms: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _merged_busy(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    ordered = sorted(intervals)
    busy = 0.0
    cur_start: float | None = None
    cur_end = 0.0
    for s, e in ordered:
        if cur_start is None:
            cur_start, cur_end = s, e
        elif s <= cur_end:
            cur_end = max(cur_end, e)
        else:
            busy += cur_end - cur_start
            cur_start, cur_end = s, e
    if cur_start is not None:
        busy += cur_end - cur_start
    return busy


@dataclass
class Timeline:
    events: list[TimelineEvent] = field(default_factory=list)

    def add(
        self,
        start: float,
        end: float,
        kind: EventKind,
        tag: str,
        stream: int = 0,
        nbytes: float = 0.0,
        sms: int = 0,
    ) -> TimelineEvent:
        if end < start:
            raise ValueError(f"event ends before it starts: {tag}")
        ev = TimelineEvent(start, end, kind, tag, stream, nbytes, sms)
        self.events.append(ev)
        return ev

    def extend(self, other: "Timeline", offset: float = 0.0) -> None:
        for ev in other.events:
            self.events.append(
                TimelineEvent(
                    ev.start + offset, ev.end + offset, ev.kind, ev.tag,
                    ev.stream, ev.nbytes, ev.sms,
                )
            )

    # -- queries ------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """End-to-end simulated time."""
        if not self.events:
            return 0.0
        lo = hi = None
        for e in self.events:
            if lo is None or e.start < lo:
                lo = e.start
            if hi is None or e.end > hi:
                hi = e.end
        return hi - lo

    @property
    def end_time(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def filter(self, kind: EventKind | None = None, tag_prefix: str | None = None):
        evs = self.events
        if kind is not None:
            evs = [e for e in evs if e.kind is kind]
        if tag_prefix is not None:
            evs = [e for e in evs if e.tag.startswith(tag_prefix)]
        return evs

    def busy_time(self, kind: EventKind | None = None, tag_prefix: str | None = None) -> float:
        """Union-of-intervals time spent in matching events (overlap-aware)."""
        return _merged_busy(
            (e.start, e.end) for e in self.filter(kind, tag_prefix)
        )

    def total_time(self, kind: EventKind | None = None, tag_prefix: str | None = None) -> float:
        """Sum of durations of matching events (double-counts overlap)."""
        return sum(e.duration for e in self.filter(kind, tag_prefix))

    def bytes_moved(self, kind: EventKind) -> float:
        return sum(e.nbytes for e in self.filter(kind))

    def breakdown(self) -> dict[str, float]:
        """Serial-time breakdown by event kind (sum of durations)."""
        out: dict[str, float] = {}
        for ev in self.events:
            out[ev.kind.value] = out.get(ev.kind.value, 0.0) + ev.duration
        return out

    def tag_breakdown(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for ev in self.events:
            out[ev.tag] = out.get(ev.tag, 0.0) + ev.duration
        return out
