"""The pass manager: one entry point over every analyzable artifact.

``Analyzer.run(target)`` dispatches on the target's type:

* :class:`~repro.plans.plan.Plan` -> plan lints (PLN0xx)
* :class:`~repro.core.fusion.FusionResult` -> fusion legality (FUS1xx)
* :class:`~repro.simgpu.engine.SimStream` (one, or a list) or a
  :class:`~repro.streampool.pool.StreamPool` -> race detection (STR2xx)
* :class:`~repro.compilerlite.ir.Program` -> IR lints (IRL3xx)
* :class:`~repro.plans.distribute.DistributedPlan` -> cluster lints
  (CLU4xx), after plan lints on the underlying plan
* :class:`~repro.optimizer.StrategyTarget` -> optimizer lints (OPT5xx)
  on hand-forced strategy choices
* :class:`~repro.analyze.memory_check.MemoryTarget` -> memory-safety
  verdicts (MEM7xx) from interval abstract interpretation

A configured :class:`~repro.analyze.baseline.Baseline` filters known
findings out of every report.  ``strict=True`` raises
:class:`~repro.errors.AnalysisError` when error-severity findings
survive -- the behavior of the executor/serving pre-flight.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..core.fusion import FusionResult
from ..core.stagecosts import DEFAULT_STAGE_COSTS, StageCostParams
from ..compilerlite.ir import Program
from ..optimizer.space import StrategyTarget
from ..plans.distribute import DistributedPlan
from ..plans.plan import Plan
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimStream
from .baseline import Baseline
from .cluster_lints import ClusterLintPass
from .diagnostics import AnalysisReport, Diagnostic
from .fusion_check import FusionCheckPass
from .ir_lints import IrLintPass
from .memory_check import MemoryCheckPass, MemoryTarget
from .opt_lints import OptimizerLintPass
from .plan_lints import PlanLintPass
from .stream_check import StreamCheckPass

#: analyzable target types, for error messages
_TARGET_KINDS = ("Plan, DistributedPlan, StrategyTarget, MemoryTarget, "
                 "FusionResult, SimStream(s), StreamPool, or Program")


class Analyzer:
    """Runs the right pass family over whatever it is handed."""

    def __init__(self, device: DeviceSpec | None = None,
                 costs: StageCostParams = DEFAULT_STAGE_COSTS,
                 baseline: Baseline | None = None):
        self.device = device or DeviceSpec()
        self.costs = costs
        self.baseline = baseline
        self.plan_lints = PlanLintPass()
        self.fusion_check = FusionCheckPass(self.device, costs)
        self.stream_check = StreamCheckPass()
        self.ir_lints = IrLintPass()
        self.cluster_lints = ClusterLintPass()
        self.opt_lints = OptimizerLintPass(self.device, costs)
        self.memory_check = MemoryCheckPass(self.device, costs)

    # -- dispatch --------------------------------------------------------
    def run(self, target: Any, unit: str | None = None,
            strict: bool = False) -> AnalysisReport:
        """Analyze one artifact; `unit` names stream programs in
        diagnostics (ignored for targets that carry their own name)."""
        report = AnalysisReport()
        diags: list[Diagnostic]
        if isinstance(target, DistributedPlan):
            diags = self.plan_lints.run(target.plan)
            diags += self.cluster_lints.run(target)
            report.passes_run.append(self.plan_lints.name)
            report.passes_run.append(self.cluster_lints.name)
        elif isinstance(target, StrategyTarget):
            diags = self.opt_lints.run(target)
            report.passes_run.append(self.opt_lints.name)
        elif isinstance(target, MemoryTarget):
            diags = self.memory_check.run(target)
            report.passes_run.append(self.memory_check.name)
        elif isinstance(target, Plan):
            diags = self.plan_lints.run(target)
            report.passes_run.append(self.plan_lints.name)
        elif isinstance(target, FusionResult):
            diags = self.fusion_check.run(target)
            report.passes_run.append(self.fusion_check.name)
        elif isinstance(target, Program):
            diags = self.ir_lints.run(target)
            report.passes_run.append(self.ir_lints.name)
        else:
            streams = _as_streams(target)
            if streams is None:
                raise TypeError(
                    f"cannot analyze {type(target).__name__}; expected "
                    f"{_TARGET_KINDS}")
            diags = self.stream_check.run(streams, unit=unit or "streams")
            report.passes_run.append(self.stream_check.name)
        report.extend(diags)
        if self.baseline is not None:
            self.baseline.apply(report)
        if strict:
            report.raise_if_errors()
        return report

    def run_all(self, targets: Iterable[Any],
                strict: bool = False) -> AnalysisReport:
        """Analyze several artifacts into one merged report."""
        merged = AnalysisReport()
        for target in targets:
            merged.merge(self.run(target))
        if strict:
            merged.raise_if_errors()
        return merged


def _as_streams(target: Any) -> list[SimStream] | None:
    """Normalize stream-shaped targets to a list of SimStreams."""
    if isinstance(target, SimStream):
        return [target]
    if isinstance(target, (list, tuple)):
        streams: list[SimStream] = []
        for item in target:
            sim = getattr(item, "sim", item)
            if not isinstance(sim, SimStream):
                return None
        for item in target:
            streams.append(getattr(item, "sim", item))
        return streams if streams else []
    sim_streams = getattr(target, "streams", None)
    if sim_streams is not None:
        return _as_streams(list(sim_streams))
    return None
