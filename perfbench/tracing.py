"""In-memory spans around the public entry points of each layer.

The benchmark traces the program from outside: :class:`Tracer` replaces a
module-level function (every alias of it in the loaded ``repro`` modules,
so callers that did ``from x import f`` are covered too) or a class method
with a wrapper that records one span per call.  Nothing under ``src/``
knows it is being traced.

A span is ``[name, start, end, parent, op, info]``: wall-clock start and
end from ``time.perf_counter``, the index of the enclosing span (-1 at the
top), the id of the benchmark op it ran in (None during set-up and
checks), and an optional work count taken from the call's result.  Self
time is a span's duration minus the time its direct children cover; the
program is single-threaded, so children nest strictly.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: derives a work count from (result, call args, value ``before`` took
#: from the call's arguments when it started); runs after the span ends
Measure = Callable[[Any, tuple, Any], Any]
Before = Callable[[tuple, dict], Any]


class Tracer:
    """Records spans while ``recording`` is set; otherwise one branch."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.recording = False
        #: when set, only spans with these names are recorded
        self.only: frozenset[str] | None = None
        self.op: int | None = None

    # -- installation ------------------------------------------------------
    def _wrapper(self, fn: Callable, name: str, measure: Measure | None,
                 before: Before | None) -> Callable:
        tracer = self
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not tracer.recording or (tracer.only is not None
                                        and name not in tracer.only):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op,
                    None]
            pre = before(args, kwargs) if before is not None else None
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(out, args, pre)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_function(self, module, attr: str, name: str,
                      measure: Measure | None = None,
                      before: Before | None = None) -> None:
        """Trace ``module.attr`` under every name a ``repro`` module binds
        it to."""
        orig = getattr(module, attr)
        wrapped = self._wrapper(orig, name, measure, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def wrap_method(self, cls: type, attr: str, name: str,
                    measure: Measure | None = None,
                    before: Before | None = None) -> None:
        setattr(cls, attr,
                self._wrapper(cls.__dict__[attr], name, measure, before))

    # -- overhead ----------------------------------------------------------
    @staticmethod
    def span_cost_s(calls: int = 20000, rounds: int = 7) -> float:
        """Wall seconds one recorded span adds to a call: a traced no-op
        against the bare no-op, timed in alternating rounds in this process
        (median of the differences), so a drift in machine speed over the
        run cancels out rather than showing up as overhead."""
        probe = Tracer()
        probe.recording = True

        def noop():
            return None

        traced = probe._wrapper(noop, "probe", None, None)
        diffs = []
        for _ in range(rounds):
            times = []
            for fn in (noop, traced):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - t0)
            diffs.append((times[1] - times[0]) / calls)
            probe.spans.clear()
        return statistics.median(diffs)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per-span duration minus the duration of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def by_name(self) -> dict[str, dict]:
        """name -> {calls, self_s, infos}, over every recorded span."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "infos": []})
        for span, own in zip(self.spans, self.self_times()):
            agg = out[span[0]]
            agg["calls"] += 1
            agg["self_s"] += own
            if span[5] is not None:
                agg["infos"].append(span[5])
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON document (spans stay in memory
        until here, so writing never lands inside a timed region)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))
