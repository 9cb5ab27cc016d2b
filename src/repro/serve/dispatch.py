"""One-batch dispatch simulation, extracted from the serve loop.

The serving loops in :mod:`repro.serve.server` decide *what* to dispatch
and *when*; this module owns *how* a formed batch turns into a simulated
timeline.  A dispatch outcome is a pure function of

    (batch plans + row stats, batch index, serve config, lane device)

with no dependence on serve-loop history: the content-addressed serve
plan cache replays cached outcomes regardless of what ran before, and CI
gates that replay byte-identical.

:class:`DispatchEngine` carries the simulation state (lane device spec,
per-lane WorkloadSchedulers and Stream Pools, the plan cache).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultError
from ..faults import FaultPlan
from ..runtime.executor import Executor
from ..runtime.workload import QueryWorkload, WorkloadScheduler
from ..simgpu.device import DeviceSpec
from ..simgpu.timeline import Timeline
from ..streampool import StreamPool
from .arrivals import QueryRequest

#: (makespan, timeline, degraded, faults observed, analysis warnings)
DispatchOutcome = tuple[float, Timeline, bool, int, int]


@dataclass(frozen=True)
class DispatchRequest:
    """One formed batch awaiting simulation on device lane ``lane``."""

    batch: tuple[QueryRequest, ...]
    batch_idx: int
    lane: int = 0


class DispatchEngine:
    """Simulates dispatches on the server's device lanes.

    Owns everything a dispatch needs and nothing the serve loop needs:
    the (possibly host-contended) lane device, one WorkloadScheduler and
    Stream Pool per lane, and the optional plan cache.
    """

    def __init__(self, device: DeviceSpec, config) -> None:
        self.device = device
        self.config = config
        if config.devices > 1:
            from ..cluster.host import contended_device
            self.lane_device = contended_device(device, config.devices)
        else:
            self.lane_device = device
        self._wscheds = [
            WorkloadScheduler(self.lane_device, check=config.check,
                              analyze=config.analyze)
            for _ in range(config.devices)]
        self._pools: list[StreamPool | None] = [None] * config.devices

    def warm(self) -> None:
        """Pre-calibrate the simulator so the first real dispatch pays no
        cold-start cost: resolve the occupancy/utilization shapes the
        catalog kernels use (they are memoized on the device)."""
        dev = self.lane_device
        from ..simgpu.compute import default_grid
        for n in (1 << 12, 1 << 16, 1 << 20):
            _, tpc = default_grid(n, dev)
            occ = dev.occupancy(tpc, 16)
            dev.utilization(occ.resident_threads, dev.num_sms)

    # ------------------------------------------------------------------
    def dispatch(self, batch: list[QueryRequest], batch_idx: int,
                 lane: int = 0) -> DispatchOutcome:
        """Run one batch on device lane ``lane``; returns (makespan,
        timeline, degraded, faults, analysis warnings)."""
        cfg = self.config
        fault_plan = (cfg.faults.reseeded(batch_idx)
                      if cfg.faults is not None else None)
        cache_key = None
        if cfg.plan_cache is not None:
            cache_key = self.dispatch_key(batch, fault_plan)
            hit = cfg.plan_cache.get(cache_key)
            if hit is not None:
                # repeat batch: the priced dispatch replays verbatim --
                # no planning, no analysis, no simulation
                return hit
        wsched = self._wscheds[lane]
        wsched.faults = fault_plan
        plans = [r.plan() for r in batch]
        warnings = 0
        if cfg.analyze:
            # plan lints before dispatch: error findings abort the batch
            # (the batched path additionally race-checks its stream program
            # inside run_batched_streams)
            from ..analyze import Analyzer
            report = Analyzer(self.lane_device).run_all(plans)
            report.raise_if_errors()
            warnings = len(report.warnings)
        workload = QueryWorkload(plans=plans)
        rows: dict[str, int] = {}
        for req in batch:
            for name, n in req.source_rows().items():
                rows[name] = max(rows.get(name, 0), n)
        try:
            if cfg.mode == "batched":
                if self._pools[lane] is None:
                    self._pools[lane] = StreamPool(
                        self.lane_device, num_streams=1 + cfg.max_streams,
                        engine=wsched._engine())
                else:
                    self._pools[lane].reset()
                result = wsched.run_batched_streams(
                    workload, rows, pool=self._pools[lane],
                    max_streams=cfg.max_streams)
            else:
                result = wsched.run_isolated(workload, rows)
        except FaultError:
            if self._pools[lane] is not None:
                self._pools[lane].reset()
            # a fault-poisoned batch is never cached: pinning the degraded
            # timeline would replay the failure for every repeat query
            return self.dispatch_degraded(batch, fault_plan, warnings)
        faults_seen = sum(
            1 for ev in result.timeline.events if ev.tag.startswith("fault."))
        out = (result.makespan, result.timeline, False, faults_seen, warnings)
        if cache_key is not None:
            cfg.plan_cache.put(cache_key, out)
        return out

    def dispatch_key(self, batch: list[QueryRequest],
                     fault_plan: FaultPlan | None) -> str:
        """Content address of one dispatch: the batch's plans and row
        stats + serve knobs + lane-device calibration (+ the reseeded
        fault plan when chaos is on, which keys each batch uniquely --
        deliberately: a faulted schedule must not stand in for a clean
        one)."""
        from ..optimizer.fingerprint import (calibration_fingerprint,
                                             plan_fingerprint)
        cfg = self.config
        if not hasattr(self, "_lane_device_fp"):
            self._lane_device_fp = calibration_fingerprint(self.lane_device)
        plans_fp = tuple(
            (plan_fingerprint(r.plan()), tuple(sorted(
                r.source_rows().items())))
            for r in batch)
        return cfg.plan_cache.key(
            "serve", cfg.mode, cfg.max_streams, cfg.memory_safety,
            cfg.check, cfg.analyze, self._lane_device_fp, plans_fp,
            fault_plan)

    def dispatch_degraded(self, batch: list[QueryRequest],
                          fault_plan: FaultPlan | None,
                          warnings: int = 0) -> DispatchOutcome:
        """Re-dispatch a fault-poisoned batch query-by-query through the
        Executor's degradation ladder (terminal rung cannot fault)."""
        timeline = Timeline()
        faults_seen = 0
        for req in batch:
            ex = Executor(self.lane_device, check=self.config.check,
                          faults=fault_plan, degrade=True)
            r = ex.run(req.plan(), req.source_rows())
            timeline.extend(r.timeline, offset=timeline.end_time)
            faults_seen += r.faults_injected
        return timeline.end_time, timeline, True, faults_seen, warnings

    def execute_round(self, assignments: list[DispatchRequest],
                      epoch: int) -> list[DispatchOutcome]:
        """Simulate one scheduling round's batches, in assignment order.

        ``epoch`` numbers the serve loop's scheduling rounds; the
        simulation itself does not depend on it.
        """
        return [self.dispatch(list(a.batch), a.batch_idx, a.lane)
                for a in assignments]


__all__ = ["DispatchEngine", "DispatchOutcome", "DispatchRequest"]
