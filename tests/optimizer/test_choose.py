"""The paper's strategy decision rules, as the cost-based optimizer prices
them on the single-device strategy space."""

import pytest

from repro.optimizer import Optimizer
from repro.plans import Plan
from repro.ra import Field
from repro.runtime import ExecutionConfig, Executor, Strategy
from repro.runtime.select_chain import select_chain_plan

# every assertion compares simulated prices, which injected faults move
pytestmark = pytest.mark.no_chaos


def _choose(plan, rows):
    return Optimizer().choose(plan, rows, include_cpubase=False)


class TestChooseStrategy:
    def test_select_chain_gets_fused_fission(self):
        decision = _choose(select_chain_plan(2), {"input": 100_000_000})
        assert decision.chosen.option.strategy is Strategy.FUSED_FISSION

    def test_oversized_input_forces_fission(self):
        decision = _choose(select_chain_plan(2), {"input": 4_000_000_000})
        assert decision.chosen.option.strategy is Strategy.FUSED_FISSION

    def test_barrier_only_plan_is_serial(self):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        plan.sort(t)
        decision = _choose(plan, {"t": 1_000_000})
        assert decision.chosen.option.strategy is Strategy.SERIAL

    def test_sort_then_chain_fuses_without_fission(self):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        n = plan.sort(t)
        n = plan.select(n, Field("k") < 1, name="a")
        n = plan.select(n, Field("k") < 2, name="b")
        decision = _choose(plan, {"t": 1_000_000})
        # the chain fuses, but nothing elementwise touches the driver input
        assert decision.chosen.option.strategy is Strategy.FUSED

    def test_unfusable_pipelinable_gets_fission(self):
        plan = Plan()
        t = plan.source("t", row_nbytes=8)
        n = plan.select(t, Field("k") < 1, name="a")
        plan.sort(n)  # single select, nothing to fuse; select feeds driver
        # large enough that pipelined transfer beats the chunk overhead
        # (the optimizer prices the break-even; tiny inputs stay serial)
        decision = _choose(plan, {"t": 10_000_000})
        assert decision.chosen.option.strategy is Strategy.FISSION

    def test_decision_is_explained(self):
        decision = _choose(select_chain_plan(2), {"input": 10**6})
        chosen = [line for line in decision.explain().splitlines()
                  if line.startswith("*")]
        assert len(chosen) == 1
        assert decision.chosen.label in chosen[0]


class TestOptimizerRun:
    def test_runs_and_reports(self):
        plan = select_chain_plan(2)
        result, decision = Optimizer().run(plan, {"input": 100_000_000},
                                           include_cpubase=False)
        assert result.strategy is decision.chosen.option.strategy
        assert result.makespan > 0

    def test_auto_not_worse_than_serial(self):
        plan = select_chain_plan(2)
        rows = {"input": 200_000_000}
        auto, _ = Optimizer().run(plan, rows, include_cpubase=False)
        serial = Executor().run(plan, rows,
                                ExecutionConfig(strategy=Strategy.SERIAL))
        assert auto.makespan <= serial.makespan

    def test_auto_matches_best_manual_on_q1(self):
        from repro.tpch import build_q1_plan, q1_source_rows
        plan = build_q1_plan()
        rows = q1_source_rows(2_000_000)
        auto, decision = Optimizer().run(plan, rows, include_cpubase=False)
        assert decision.chosen.option.strategy is Strategy.FUSED_FISSION
        manual = Executor().run(
            plan, rows, ExecutionConfig(strategy=Strategy.FUSED_FISSION))
        assert auto.makespan == pytest.approx(manual.makespan, rel=1e-6)
