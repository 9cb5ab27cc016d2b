"""Tests for the logical-plan builder and graph utilities."""

import pytest

from repro.errors import PlanError
from repro.frontend import compile_sql
from repro.plans.fuzz import random_plan_case
from repro.plans.plan import OpType, Plan, PlanNode
from repro.ra.arithmetic import AggSpec
from repro.ra.expr import Field
from repro.tpch.catalog import CATALOG, QUERIES


class TestBuilder:
    def test_source(self):
        plan = Plan()
        s = plan.source("t", row_nbytes=8, n_rows=100)
        assert s.op is OpType.SOURCE
        assert s.out_row_nbytes == 8
        assert s.params["n_rows"] == 100

    def test_auto_names_unique(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1)
        b = plan.select(a, Field("x") < 2)
        assert a.name != b.name

    def test_input_from_another_plan_rejected(self):
        p1, p2 = Plan(), Plan()
        s = p1.source("t")
        with pytest.raises(PlanError):
            p2.select(s, Field("x") < 1)

    def test_negative_selectivity_rejected(self):
        with pytest.raises(PlanError):
            PlanNode(OpType.SELECT, "bad", [], selectivity=-0.1)

    def test_predicate_accessor(self):
        plan = Plan()
        s = plan.source("t")
        pred = Field("x") < 1
        sel = plan.select(s, pred)
        assert sel.predicate is pred
        assert s.predicate is None


class TestValidation:
    def test_valid_plan_passes(self):
        plan = Plan()
        s = plan.source("t")
        plan.select(s, Field("x") < 1)
        plan.validate()

    def test_arity_enforced(self):
        plan = Plan()
        s = plan.source("t")
        bad = PlanNode(OpType.JOIN, "j", [s])  # JOIN needs 2 inputs
        plan.nodes.append(bad)
        with pytest.raises(PlanError, match="needs 2 inputs"):
            plan.validate()

    def test_duplicate_names_rejected(self):
        plan = Plan()
        s = plan.source("t")
        plan.select(s, Field("x") < 1, name="same")
        plan.select(s, Field("x") < 2, name="same")
        with pytest.raises(PlanError, match="duplicate"):
            plan.validate()

    def test_cycle_detected(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1)
        b = plan.select(a, Field("x") < 2)
        a.inputs[0] = b  # create a cycle
        with pytest.raises(PlanError, match="cycle"):
            plan.validate()


class TestGraphQueries:
    def _diamondish(self):
        plan = Plan()
        s = plan.source("t")
        a = plan.select(s, Field("x") < 1, name="a")
        b = plan.select(a, Field("x") < 2, name="b")
        c = plan.select(a, Field("x") < 3, name="c")
        return plan, s, a, b, c

    def test_consumers(self):
        plan, s, a, b, c = self._diamondish()
        assert set(n.name for n in plan.consumers(a)) == {"b", "c"}
        assert plan.consumers(b) == []

    def test_sinks(self):
        plan, s, a, b, c = self._diamondish()
        assert set(n.name for n in plan.sinks()) == {"b", "c"}

    @pytest.mark.parametrize("seed", range(60))
    def test_sinks_match_consumer_scan_on_fuzz_corpus(self, seed):
        plan = random_plan_case(seed).plan
        assert plan.sinks() == [n for n in plan.nodes if not plan.consumers(n)]

    def test_sinks_match_consumer_scan_on_tpch_plans(self):
        for name, sql in sorted(QUERIES.items()):
            plan = compile_sql(sql, CATALOG, name=name).plan
            assert plan.sinks() == [n for n in plan.nodes
                                    if not plan.consumers(n)], name

    def test_sources(self):
        plan, s, *_ = self._diamondish()
        assert plan.sources() == [s]

    def test_topological_order(self):
        plan, s, a, b, c = self._diamondish()
        order = [n.name for n in plan.topological()]
        assert order.index("t") < order.index("a") < order.index("b")
        assert order.index("a") < order.index("c")

    def test_all_builders_validate(self):
        plan = Plan()
        l = plan.source("l", row_nbytes=8)
        r = plan.source("r", row_nbytes=8)
        n = plan.select(l, Field("x") < 1)
        n = plan.project(n, ["x"])
        n = plan.join(n, r)
        n = plan.semi_join(n, r)
        n = plan.anti_join(n, r)
        n = plan.product(n, r, right_rows=2)
        n = plan.arith(n, {"y": Field("x") + 1})
        n2 = plan.union(plan.select(l, Field("x") < 9), r)
        n3 = plan.intersection(n2, r)
        n3 = plan.difference(n3, r)
        n = plan.sort(n)
        n = plan.unique(n)
        plan.aggregate(n, [], {"c": AggSpec("count")})
        plan.validate()
