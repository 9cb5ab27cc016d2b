"""Static analysis of plans, fusion results, stream programs, and IR.

Runs *before* simulation and reports structured
:class:`~repro.analyze.diagnostics.Diagnostic` findings with stable
codes (see ``docs/ANALYSIS.md`` for the catalog):

* ``PLN0xx`` -- plan lints (structure, column flow, cardinality)
* ``FUS1xx`` -- fusion legality (barriers, single-consumer, cycles,
  register budget)
* ``STR2xx`` -- stream-program races and deadlocks
* ``IRL3xx`` -- compilerlite IR lints
* ``CLU4xx`` -- cluster distribution lints on sharded plans
* ``OPT5xx`` -- optimizer lints on hand-forced strategy choices
* ``MEM7xx`` -- memory-safety verdicts from interval abstract
  interpretation (certain/possible OOM, chunking sufficiency,
  exchange-volume bounds, fusion savings)

Entry points: :class:`Analyzer` for programmatic use, ``repro analyze``
on the CLI, and the opt-in ``analyze=True`` pre-flight on
:class:`~repro.runtime.executor.Executor` and
:class:`~repro.serve.server.QueryServer`.
"""

from .absint import Envelope, Interval, plan_envelopes, strategy_footprint
from .baseline import Baseline, Suppression, baseline_from_findings, write_baseline
from .cluster_lints import ClusterLintPass
from .diagnostics import (REGISTRY, AnalysisReport, CodeInfo, Diagnostic,
                          Severity, SourceLocation, registered,
                          registry_table)
from .framework import Analyzer
from .fusion_check import FusionCheckPass
from .ir_lints import IrLintPass
from .memory_check import (MemoryCheckPass, MemoryTarget, MemoryVerdict,
                           check_strategy)
from .opt_lints import OptimizerLintPass
from .plan_lints import PlanLintPass
from .stream_check import StreamCheckPass
from . import corpus

__all__ = [
    "Analyzer", "AnalysisReport", "Diagnostic", "Severity",
    "SourceLocation", "Baseline", "Suppression", "baseline_from_findings",
    "write_baseline", "PlanLintPass", "FusionCheckPass", "StreamCheckPass",
    "IrLintPass", "ClusterLintPass", "OptimizerLintPass",
    "MemoryCheckPass", "MemoryTarget", "MemoryVerdict", "check_strategy",
    "Interval", "Envelope", "plan_envelopes", "strategy_footprint",
    "REGISTRY", "CodeInfo", "registered", "registry_table",
    "corpus",
]
