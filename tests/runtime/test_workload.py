"""Tests for the cross-query workload scheduler."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.faults import FaultPlan
from repro.plans import Plan, evaluate_sinks
from repro.plans.plan import OpType
from repro.plans.rewrite import _clone_plan
from repro.ra import AggSpec, Field
from repro.ra.relation import Relation
from repro.runtime.workload import QueryWorkload, WorkloadScheduler


def query(i, threshold, agg=False):
    plan = Plan(name=f"query{i}")
    t = plan.source("lineitem", row_nbytes=4)
    node = plan.select(t, Field("x") < threshold, selectivity=0.2,
                       name="filter")
    if agg:
        plan.aggregate(node, [], {"n": AggSpec("count")}, name="count")
    return plan


@pytest.fixture
def workload():
    return QueryWorkload(plans=[query(0, 10), query(1, 20), query(2, 30, agg=True)])


ROWS = {"lineitem": 200_000_000}


class TestMergedPlan:
    def test_sources_deduplicated(self, workload):
        merged = workload.merged_plan()
        assert len(merged.sources()) == 1

    def test_query_nodes_namespaced(self, workload):
        merged = workload.merged_plan()
        names = {n.name for n in merged.nodes if n.op is not OpType.SOURCE}
        assert "q0.filter" in names and "q2.count" in names

    def test_merged_validates(self, workload):
        workload.merged_plan().validate()

    def test_empty_workload_rejected(self):
        with pytest.raises(PlanError):
            QueryWorkload(plans=[])

    def test_shared_scan_group_appears(self, workload):
        from repro.core.multifusion import find_shared_select_groups
        groups = find_shared_select_groups(workload.merged_plan())
        assert len(groups) == 1
        assert len(groups[0].selects) == 3


class TestScheduler:
    def test_isolated_uploads_per_query(self, workload):
        sched = WorkloadScheduler()
        r = sched.run_isolated(workload, ROWS)
        assert r.input_bytes == pytest.approx(3 * 200_000_000 * 4)

    def test_shared_source_uploads_once(self, workload):
        sched = WorkloadScheduler()
        r = sched.run_shared_source(workload, ROWS)
        assert r.input_bytes == pytest.approx(200_000_000 * 4)

    def test_sharing_improves(self, workload):
        sched = WorkloadScheduler()
        results = sched.compare(workload, ROWS)
        assert (results["shared_source"].makespan
                < results["isolated"].makespan)
        assert (results["cross_query_fused"].makespan
                < results["shared_source"].makespan)

    def test_cross_query_fusion_kernel_count_drops(self, workload):
        from repro.simgpu import EventKind
        sched = WorkloadScheduler()
        shared = sched.run_shared_source(workload, ROWS)
        fused = sched.run_cross_query_fused(workload, ROWS)
        assert (len(fused.timeline.filter(EventKind.KERNEL))
                < len(shared.timeline.filter(EventKind.KERNEL)))

    def test_single_query_workload_no_fusion_benefit(self):
        w = QueryWorkload(plans=[query(0, 10)])
        sched = WorkloadScheduler()
        a = sched.run_shared_source(w, ROWS)
        b = sched.run_cross_query_fused(w, ROWS)
        assert a.makespan == pytest.approx(b.makespan, rel=0.01)

    def test_throughput_definition(self, workload):
        r = WorkloadScheduler().run_isolated(workload, ROWS)
        assert r.throughput == pytest.approx(r.input_bytes / r.makespan)


REGIMES = ("run_isolated", "run_shared_source", "run_cross_query_fused",
           "run_batched_streams")


class TestRegimeComparison:
    """The sharing regimes only reschedule work -- they must agree on the
    answer, and sharing more must never cost simulated time."""

    def test_results_identical_across_regimes(self, workload):
        # Every regime executes the same logical plans (per-query for
        # isolated, merged for the sharing regimes); the functional
        # interpreter is the reference both reduce to.
        rel = Relation({"x": np.arange(1000) % 50})
        merged_out = evaluate_sinks(workload.merged_plan(), {"lineitem": rel})
        for qi, plan in enumerate(workload.plans):
            for name, got in evaluate_sinks(plan, {"lineitem": rel}).items():
                want = merged_out[f"q{qi}.{name}"]
                assert list(got.columns) == list(want.columns)
                for col in got.columns:
                    np.testing.assert_array_equal(
                        got.columns[col], want.columns[col])

    @pytest.mark.no_chaos
    def test_makespan_monotone_non_increasing(self, workload):
        sched = WorkloadScheduler()
        iso = sched.run_isolated(workload, ROWS)
        shared = sched.run_shared_source(workload, ROWS)
        fused = sched.run_cross_query_fused(workload, ROWS)
        batched = sched.run_batched_streams(workload, ROWS)
        assert iso.makespan >= shared.makespan >= fused.makespan
        # the serving-path dispatch overlaps per-query remainders on top of
        # the shared scan, so it can only improve on the serial merged plan
        assert batched.makespan <= shared.makespan

    def test_batched_streams_uploads_once(self, workload):
        r = WorkloadScheduler().run_batched_streams(workload, ROWS)
        assert r.input_bytes == pytest.approx(200_000_000 * 4)

    @pytest.mark.no_chaos
    def test_chaos_regimes_recover_and_stay_deterministic(self, workload,
                                                          chaos):
        clean = WorkloadScheduler()
        faulted = WorkloadScheduler(faults=chaos)
        for regime in REGIMES:
            base = getattr(clean, regime)(workload, ROWS)
            r1 = getattr(faulted, regime)(workload, ROWS)
            r2 = getattr(faulted, regime)(workload, ROWS)
            # a FaultPlan hands each run a fresh injector: same decisions
            assert r1.makespan == r2.makespan, regime
            # retries/stalls/backoff only ever add simulated time
            assert r1.makespan >= base.makespan, regime

    @pytest.mark.no_chaos
    def test_chaos_faults_marked_in_timeline(self, workload):
        sched = WorkloadScheduler(faults=FaultPlan.chaos(5, rate=0.3))
        r = sched.run_shared_source(workload, ROWS)
        assert any(ev.tag.startswith("fault.") for ev in r.timeline.events)


# ---------------------------------------------------------------------------
# emission templates: a replayed template queues the commands a fresh build
# would, so timelines stay byte-identical
# ---------------------------------------------------------------------------

def _event_bytes(timeline) -> str:
    return repr(timeline.events)


def _unfrozen_catalog():
    """A ``QueryRequest.plan`` serving unfrozen builds of the catalog: an
    unfrozen plan never stores a template, so every dispatch lowers its
    queries from scratch."""
    from repro.serve.arrivals import _build_catalog_plan
    plans = {}

    def plan(request):
        if request.kind not in plans:
            plans[request.kind] = _build_catalog_plan(request.kind)
        return plans[request.kind]
    return plan


def _served_dispatches(cfg):
    """(request, outcome) for every dispatch of a seeded serve run, and
    the engine that ran them."""
    from repro.serve import ArrivalProcess, QueryServer
    server = QueryServer(config=cfg)
    engine = server.engine
    execute_round = engine.execute_round
    log = []

    def recording_round(assignments, epoch):
        outcomes = execute_round(assignments, epoch)
        log.extend(zip(assignments, outcomes))
        return outcomes

    engine.execute_round = recording_round
    trace = ArrivalProcess(qps=10, duration_s=10.0, seed=5).trace()
    server.run(trace=trace)
    return log, engine


class TestEmissionReplay:
    @pytest.mark.no_chaos
    @pytest.mark.parametrize("devices", [1, 4])
    @pytest.mark.parametrize("strict", [False, True], ids=["clean", "chaos"])
    def test_serve_trace_matches_fresh_lowering(self, device, monkeypatch,
                                                devices, strict):
        from repro.serve import QueryRequest, ServeConfig
        from repro.serve.dispatch import DispatchEngine
        cfg = ServeConfig(
            mode="batched", devices=devices,
            faults=FaultPlan.chaos(7, rate=0.05) if strict else None,
            check=strict, analyze=strict)
        log, engine = _served_dispatches(cfg)
        batches = sum(len(ws._batches) for ws in engine._wscheds)
        # the memo was exercised: most dispatches replayed a stored shape
        assert len(log) > 2 * batches > 0
        if strict:
            assert any(out[3] for _, out in log)     # faults were injected

        monkeypatch.setattr(QueryRequest, "plan", _unfrozen_catalog())
        fresh = DispatchEngine(device, cfg)
        fresh.warm()
        for req, first in log:
            again = fresh.dispatch(list(req.batch), req.batch_idx, req.lane)
            assert again[0] == first[0], req.batch_idx
            assert again[2:] == first[2:], req.batch_idx
            assert _event_bytes(again[1]) == _event_bytes(first[1]), \
                req.batch_idx
        assert all(not ws._batches for ws in fresh._wscheds)

    @pytest.mark.no_chaos
    @pytest.mark.parametrize("regime", REGIMES + ("run_batched_streams",))
    @pytest.mark.parametrize("faults", [None, FaultPlan.chaos(7, rate=0.05)],
                             ids=["clean", "chaos"])
    def test_regimes_match_fresh_lowering(self, regime, faults):
        from repro.serve import catalog_plan, catalog_rows
        from repro.serve.arrivals import _build_catalog_plan
        kinds = ("q6", "sql_scan", "sql_agg", "q6", "tpch_q3")
        frozen = QueryWorkload([catalog_plan(k) for k in kinds])
        unfrozen = QueryWorkload([_build_catalog_plan(k) for k in kinds])
        memoising = WorkloadScheduler(check=True, faults=faults)
        # the same plans at a second scale, then the first again: a stored
        # template must never stand in for another scale's
        for elements in (2_000_000, 3_000_000, 2_000_000):
            rows = {}
            for kind in kinds:
                for name, n in catalog_rows(kind, elements).items():
                    rows[name] = max(rows.get(name, 0), n)
            got = getattr(memoising, regime)(frozen, rows)
            want = getattr(WorkloadScheduler(check=True, faults=faults),
                           regime)(unfrozen, rows)
            assert got.input_bytes == want.input_bytes
            assert _event_bytes(got.timeline) == _event_bytes(want.timeline)

    @pytest.mark.no_chaos
    @pytest.mark.parametrize("regime", REGIMES + ("run_batched_streams",))
    def test_in_place_edit_of_unfrozen_plan_is_not_served_stale(self, regime):
        sched = WorkloadScheduler()
        edited = [query(0, 10), query(1, 20, agg=True)]
        before = getattr(sched, regime)(QueryWorkload(edited), ROWS)
        edited[1].nodes[1].selectivity = 0.05
        after = getattr(sched, regime)(QueryWorkload(edited), ROWS)

        rebuilt = [query(0, 10), query(1, 20, agg=True)]
        rebuilt[1].nodes[1].selectivity = 0.05
        want = getattr(WorkloadScheduler(), regime)(
            QueryWorkload(rebuilt), ROWS)
        assert _event_bytes(after.timeline) == _event_bytes(want.timeline)
        assert _event_bytes(after.timeline) != _event_bytes(before.timeline)

    @pytest.mark.no_chaos
    @pytest.mark.parametrize("regime", REGIMES[1:])
    def test_merged_source_width_keys_the_template(self, regime):
        # a merged source is cloned from the first query that reads it, so
        # the same query lowers differently behind a wider same-named table
        def wide(i):
            plan = Plan(name=f"wide{i}")
            t = plan.source("lineitem", row_nbytes=16)
            plan.select(t, Field("x") < 5, selectivity=0.2, name="filter")
            return plan

        narrow = query(1, 20, agg=True).freeze()
        sched = WorkloadScheduler()
        for first in (query(0, 10).freeze(), wide(0).freeze()):
            got = getattr(sched, regime)(QueryWorkload([first, narrow]), ROWS)
            fresh = [_clone_plan(first)[0], _clone_plan(narrow)[0]]
            want = getattr(WorkloadScheduler(), regime)(
                QueryWorkload(fresh), ROWS)
            assert _event_bytes(got.timeline) == _event_bytes(want.timeline)

    def test_templates_are_shared_across_schedulers(self):
        from repro.serve import catalog_plan, catalog_rows
        plan = catalog_plan("q21")
        workload = QueryWorkload([plan])
        rows = catalog_rows("q21", 1_000_000)
        a = WorkloadScheduler()
        a.run_batched_streams(workload, rows)
        b = WorkloadScheduler(device=a.device)
        b.run_batched_streams(workload, rows)
        (_, _, _, ta), = a._batches.values()
        (_, _, _, tb), = b._batches.values()
        assert ta[0] is tb[0]      # one template, stored on the frozen plan
