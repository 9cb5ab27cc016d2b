"""Graceful degradation: repeated device OOM walks the strategy ladder down
to the host interpreter, and the run result records where it landed."""

import numpy as np
import pytest

from repro.errors import DeviceOOMError
from repro.faults import FaultKind, FaultPlan
from repro.plans import evaluate_sinks
from repro.plans.fuzz import random_plan_case
from repro.plans.plan import Plan
from repro.ra import AggSpec, Field
from repro.ra.relation import Relation
from repro.runtime import ExecutionConfig, Executor, GpuRuntime, Strategy
from repro.runtime.strategies import degradation_ladder
from repro.simgpu import EventKind

OOM_STORM = FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0}, budget=256)


FUSED = ExecutionConfig(Strategy.FUSED)


class TestLadders:
    def test_canonical_order(self):
        assert degradation_ladder(Strategy.FUSED_FISSION) == (
            Strategy.FUSED_FISSION, Strategy.FUSED,
            Strategy.WITH_ROUND_TRIP, "cpubase")
        assert degradation_ladder(Strategy.FISSION) == (
            Strategy.FISSION, Strategy.SERIAL,
            Strategy.WITH_ROUND_TRIP, "cpubase")

    def test_every_ladder_ends_at_cpubase(self):
        for strategy in Strategy:
            ladder = degradation_ladder(strategy)
            assert ladder[0] is strategy
            assert ladder[-1] == "cpubase"

    def test_transferless_config_rejected(self):
        """GpuRuntime moves real data, so the timing-only
        ``include_transfers=False`` has no functional meaning."""
        case = random_plan_case(4)
        with pytest.raises(ValueError):
            GpuRuntime().run(case.plan, case.sources,
                             ExecutionConfig(include_transfers=False))


class TestGpuRuntimeDegradation:
    def test_oom_storm_lands_on_cpubase(self):
        case = random_plan_case(4)
        rt = GpuRuntime(faults=OOM_STORM)
        result = rt.run(case.plan, case.sources, FUSED)
        assert result.strategy is Strategy.FUSED
        assert result.degraded_to == "cpubase"
        assert result.faults_injected > 0
        ref = evaluate_sinks(case.plan, case.sources)
        for name, rel in ref.items():
            assert result.results[name].same_tuples(rel)

    def test_cpubase_timeline_is_host_only(self):
        case = random_plan_case(4)
        result = GpuRuntime().run_cpubase(case.plan, case.sources)
        assert result.timeline.filter(EventKind.H2D) == []
        assert result.timeline.filter(EventKind.KERNEL) == []
        assert len(result.timeline.filter(EventKind.HOST)) == 1
        assert result.makespan > 0

    def test_single_transient_oom_is_absorbed(self):
        """One allocator hiccup retries in place; only a *repeated* hit at
        the same site forces the ladder down (budget 1 = single draw)."""
        case = random_plan_case(4)
        one_shot = FaultPlan(seed=0, rates={FaultKind.DEVICE_OOM: 1.0},
                             budget=1)
        result = GpuRuntime(faults=one_shot).run(
            case.plan, case.sources, FUSED)
        assert result.degraded_to is None
        assert result.strategy is Strategy.FUSED
        assert result.retries == 1

    def test_degrade_false_surfaces_injected_oom(self):
        case = random_plan_case(4)
        rt = GpuRuntime(faults=OOM_STORM, degrade=False)
        with pytest.raises(DeviceOOMError) as exc:
            rt.run(case.plan, case.sources, FUSED)
        assert getattr(exc.value, "injected", False)
        assert exc.value.site.startswith("alloc.")

    def test_cpubase_never_degrades(self):
        case = random_plan_case(4)
        result = GpuRuntime(faults=OOM_STORM).run_cpubase(
            case.plan, case.sources)
        assert result.timeline.filter(EventKind.KERNEL) == []
        assert result.degraded_to is None


class TestModeEquivalence:
    def test_chunked_bounds_device_footprint(self):
        case = random_plan_case(6)
        rt = GpuRuntime()
        serial = rt.run(case.plan, case.sources,
                        ExecutionConfig(Strategy.SERIAL))
        round_trip = rt.run(case.plan, case.sources,
                            ExecutionConfig(Strategy.WITH_ROUND_TRIP))
        assert round_trip.peak_device_bytes <= serial.peak_device_bytes
        for name, rel in serial.results.items():
            assert round_trip.results[name].same_tuples(rel)

    def test_fission_falls_back_on_non_streamable_plans(self):
        """An aggregate right at the sink cannot stream row-segments; the
        fission strategies must still answer (resident execution inside)."""
        plan = Plan()
        t = plan.source("t", row_nbytes=4)
        s = plan.select(t, Field("v") < 50, selectivity=0.5, name="keep")
        plan.aggregate(s, [], {"n": AggSpec("count")}, name="agg")
        rel = Relation({"v": np.arange(100, dtype=np.int32)})
        result = GpuRuntime().run(plan, {"t": rel},
                                  ExecutionConfig(Strategy.FUSED_FISSION))
        ref = evaluate_sinks(plan, {"t": rel})
        for name, r in ref.items():
            assert result.results[name].same_tuples(r)


class TestExecutorDegradation:
    def test_degradation_ladder_reaches_cpubase(self):
        from repro.tpch import build_q1_plan, q1_source_rows
        ex = Executor(faults=OOM_STORM)
        r = ex.run(build_q1_plan(), q1_source_rows(1_000_000))
        assert r.degraded_to == "cpubase"
        assert r.faults_injected > 0
        assert r.makespan > 0
        assert len(r.timeline.filter(EventKind.HOST)) == 1


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_oom_storm_lands_both_runtimes_on_cpubase(strategy):
    """One ladder: whichever strategy they start from, the functional and
    the timing runtime walk it to the same last rung."""
    case = random_plan_case(4)
    rows = {name: rel.num_rows for name, rel in case.sources.items()}
    config = ExecutionConfig(strategy)
    functional = GpuRuntime(faults=OOM_STORM).run(case.plan, case.sources,
                                                  config)
    timing = Executor(faults=OOM_STORM).run(case.plan, rows, config)
    assert functional.degraded_to == timing.degraded_to == "cpubase"
