"""Tests for the logical-plan builder and graph utilities."""

import numpy as np
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


def _fuzz_and_tpch_plans():
    """The 60-seed fuzz corpus and the 22 frontend-compiled TPC-H plans."""
    for seed in range(60):
        yield f"fuzz_{seed}", random_plan_case(seed).plan
    for name, sql in sorted(QUERIES.items()):
        yield name, compile_sql(sql, CATALOG, name=name).plan


def _oracle_topological(plan):
    """The original depth-first walk (tuple stack, linear `any` scan per
    visit), kept as the oracle for :meth:`Plan.topological`."""
    seen, order = set(), []

    def visit(node, stack):
        nid = id(node)
        if any(nid == id(s) for s in stack):
            start = next(i for i, s in enumerate(stack) if id(s) == nid)
            path = " -> ".join(n.name for n in stack[start:])
            raise PlanError(
                f"cycle through {node.name}: {path} -> {node.name}")
        if nid in seen:
            return
        for inp in node.inputs:
            visit(inp, stack + (node,))
        seen.add(nid)
        order.append(node)

    for node in plan.nodes:
        visit(node, ())
    return order


def _oracle_dangling(plan):
    """The original list-membership dangling-input check."""
    return [f"node {node.name!r}: input #{i} ({inp.name!r}) is "
            f"not part of plan {plan.name!r}"
            for node in plan.nodes for i, inp in enumerate(node.inputs)
            if inp not in plan.nodes]


def _cycle_plans():
    """The cycle shapes the suite builds: a two-node back edge, a
    self-loop, and a back edge into a diamond with a second source."""
    plan = Plan("two")
    s = plan.source("t")
    a = plan.select(s, Field("x") < 1, name="a")
    b = plan.select(a, Field("x") < 2, name="b")
    a.inputs[0] = b
    yield plan
    plan = Plan("self")
    s = plan.source("t")
    a = plan.select(s, Field("x") < 1, name="a")
    a.inputs[0] = a
    yield plan
    plan = Plan("diamond")
    s = plan.source("t")
    r = plan.source("r")
    a = plan.select(s, Field("x") < 1, name="a")
    b = plan.select(a, Field("x") < 2, name="b")
    c = plan.select(a, Field("x") < 3, name="c")
    j = plan.join(b, c, name="j")
    plan.semi_join(j, r, name="sj")
    a.inputs[0] = j
    yield plan


class TestLinearTopological:
    @pytest.mark.parametrize("name,plan", list(_fuzz_and_tpch_plans()))
    def test_order_matches_oracle(self, name, plan):
        assert list(plan.topological()) == _oracle_topological(plan)
        assert plan.structural_issues() == []

    @pytest.mark.parametrize("plan", list(_cycle_plans()),
                             ids=lambda p: p.name)
    def test_cycle_message_matches_oracle(self, plan):
        with pytest.raises(PlanError) as want:
            _oracle_topological(plan)
        with pytest.raises(PlanError) as got:
            list(plan.topological())
        assert str(got.value) == str(want.value)
        cycles = [i.message for i in plan.structural_issues()
                  if i.kind == "cycle"]
        assert cycles == [str(want.value)]

    def test_dangling_message_matches_oracle(self):
        plan = Plan("p")
        s = plan.source("t")
        ghost = PlanNode(OpType.SOURCE, "ghost", [])
        plan.nodes.append(PlanNode(OpType.JOIN, "j", [s, ghost]))
        dangling = [i.message for i in plan.structural_issues()
                    if i.kind == "dangling"]
        assert dangling == _oracle_dangling(plan)
        assert len(dangling) == 1


def _frozen_diamond():
    plan = Plan("frozen")
    s = plan.source("t", fields=["x", "y"])
    a = plan.select(s, Field("x") < 1, name="a")
    plan.project(a, ["x"], name="b")
    plan.join(a, a, on="x", name="self_join")
    return plan.freeze()


class TestFreeze:
    def test_freeze_returns_self_and_is_idempotent(self):
        plan = Plan()
        plan.source("t")
        assert plan.freeze() is plan
        assert plan.frozen
        assert plan.freeze() is plan

    def test_freeze_validates(self):
        plan = Plan()
        s = plan.source("t")
        plan.nodes.append(PlanNode(OpType.JOIN, "j", [s]))
        with pytest.raises(PlanError, match="needs 2 inputs"):
            plan.freeze()
        assert not plan.frozen

    @pytest.mark.parametrize("name,plan", list(_fuzz_and_tpch_plans()))
    def test_graph_queries_match_unfrozen(self, name, plan):
        order = list(plan.topological())
        consumers = [plan.consumers(n) for n in plan.nodes]
        sinks, sources = plan.sinks(), plan.sources()
        plan.freeze()
        assert list(plan.topological()) == order
        assert [plan.consumers(n) for n in plan.nodes] == consumers
        assert plan.sinks() == sinks
        assert plan.sources() == sources
        plan.validate()
        assert plan.structural_issues() == []

    def test_consumer_listed_once_per_input_pair(self):
        plan = _frozen_diamond()
        a = plan.nodes[1]
        assert [n.name for n in plan.consumers(a)] == ["b", "self_join"]
        # a node outside the plan has no consumers in it
        assert plan.consumers(PlanNode(OpType.SOURCE, "t", [])) == []

    def test_adding_a_node_raises(self):
        plan = _frozen_diamond()
        with pytest.raises(PlanError, match="frozen"):
            plan.select(plan.nodes[0], Field("x") < 2)
        with pytest.raises(PlanError, match="frozen"):
            plan.source("u")
        with pytest.raises(PlanError, match="frozen"):
            plan.nodes.append(PlanNode(OpType.SOURCE, "u", []))
        with pytest.raises(PlanError, match="frozen"):
            plan.nodes += [PlanNode(OpType.SOURCE, "u", [])]
        assert len(plan.nodes) == 4

    def test_setting_a_node_attribute_raises(self):
        plan = _frozen_diamond()
        a = plan.nodes[1]
        for attr, value in (("selectivity", 0.25), ("name", "renamed"),
                            ("out_row_nbytes", 64), ("params", {})):
            with pytest.raises(PlanError, match="frozen"):
                setattr(a, attr, value)
        assert a.selectivity == 0.5 and a.name == "a"
        with pytest.raises(PlanError, match="frozen"):
            plan.name = "other"

    def test_writing_params_raises(self):
        plan = _frozen_diamond()
        src, a, b = plan.nodes[:3]
        with pytest.raises(PlanError, match="frozen"):
            a.params["predicate"] = Field("x") < 5
        with pytest.raises(PlanError, match="frozen"):
            a.params.update(predicate=None)
        with pytest.raises(PlanError, match="frozen"):
            del src.params["n_rows"]
        # lists nested in params freeze too
        with pytest.raises(PlanError, match="frozen"):
            b.params["fields"].append("y")
        with pytest.raises(PlanError, match="frozen"):
            src.params["fields"][0] = "z"
        with pytest.raises(PlanError, match="frozen"):
            a.inputs[0] = b
        assert b.params["fields"] == ["x"]

    def test_frozen_containers_read_and_copy_as_plain(self):
        plan = _frozen_diamond()
        b = plan.nodes[2]
        fields = b.params["fields"]
        assert isinstance(fields, list) and repr(fields) == "['x']"
        copied = dict(b.params)
        copied["fields"] = list(fields) + ["y"]
        assert b.params["fields"] == ["x"]

    def test_memo_stores_only_on_frozen_plans(self):
        calls = []

        def compute():
            calls.append(1)
            return len(calls)

        plan = Plan()
        plan.source("t")
        assert plan.memo("k", compute) == 1
        assert plan.memo("k", compute) == 2      # unfrozen: recomputed
        plan.freeze()
        assert plan.memo("k", compute) == 3
        assert plan.memo("k", compute) == 3      # frozen: a lookup

    @pytest.mark.parametrize("seed", [None, *range(0, 60, 6)])
    def test_optimize_plan_on_frozen_returns_unfrozen_equal_clone(self, seed):
        from repro.plans import evaluate_sinks
        from repro.plans.rewrite import optimize_plan
        from repro.ra import Relation
        if seed is None:
            # a SELECT chain the rewrite reorders (most selective first)
            plan = Plan("chain")
            node = plan.source("main", row_nbytes=8)
            for i, sel in enumerate((0.9, 0.2, 0.5)):
                node = plan.select(node, Field("k") < int(sel * 50),
                                   selectivity=sel, name=f"s{i}")
            rng = np.random.default_rng(0)
            sources = {"main": Relation(
                {"k": rng.integers(0, 50, 2000).astype(np.int32)})}
        else:
            case = random_plan_case(seed)
            plan, sources = case.plan, case.sources
        want = list(evaluate_sinks(plan, sources).values())
        frozen = plan.freeze()
        opt = optimize_plan(frozen)
        assert opt is not frozen and not opt.frozen
        assert not set(map(id, opt.nodes)) & set(map(id, frozen.nodes))
        got = list(evaluate_sinks(opt, sources).values())
        assert len(got) == len(want)
        assert all(g.same_tuples(w) for g, w in zip(got, want))
        # the clone is editable; the frozen input is not
        opt.nodes[-1].selectivity = 0.125
        assert frozen.nodes[-1].selectivity != 0.125


class TestFrozenFingerprint:
    @pytest.mark.parametrize("name,plan", list(_fuzz_and_tpch_plans()))
    def test_digest_matches_unfrozen_clone(self, name, plan):
        from repro.optimizer.fingerprint import plan_fingerprint
        from repro.plans.rewrite import _clone_plan
        clone, _ = _clone_plan(plan)
        want = plan_fingerprint(clone)
        plan.freeze()
        assert plan_fingerprint(plan) == want
        assert plan_fingerprint(plan) is plan_fingerprint(plan)
        assert not clone.frozen and plan_fingerprint(clone) == want
