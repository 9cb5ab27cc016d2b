"""Tests for the client/arrival model."""

import pytest

from repro.errors import PlanError
from repro.optimizer.fingerprint import plan_fingerprint
from repro.plans.rewrite import _clone_plan
from repro.serve import (
    ArrivalProcess,
    DEFAULT_TENANTS,
    QUERY_KINDS,
    TenantSpec,
    catalog_plan,
    catalog_rows,
)


class TestCatalog:
    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_every_kind_has_a_plan(self, kind):
        plan = catalog_plan(kind)
        plan.validate()
        assert plan.sources()

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_every_kind_has_rows(self, kind):
        rows = catalog_rows(kind, 1_000_000)
        assert rows
        assert all(n >= 1 for n in rows.values())

    def test_rows_cover_plan_sources(self):
        for kind in QUERY_KINDS:
            rows = catalog_rows(kind, 600_000)
            for src in catalog_plan(kind).sources():
                assert src.name in rows

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            catalog_plan("q99")
        with pytest.raises(KeyError):
            catalog_rows("q99", 1000)

    def test_plan_is_cached(self):
        assert catalog_plan("q6") is catalog_plan("q6")

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_every_kind_is_frozen(self, kind):
        plan = catalog_plan(kind)
        assert plan.frozen
        with pytest.raises(PlanError, match="frozen"):
            plan.nodes[-1].selectivity = 0.5
        with pytest.raises(PlanError, match="frozen"):
            plan.source("extra")

    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_fingerprint_matches_unfrozen_clone(self, kind):
        plan = catalog_plan(kind)
        clone, _ = _clone_plan(plan)
        assert not clone.frozen
        assert plan_fingerprint(plan) == plan_fingerprint(clone)


class TestTenantSpec:
    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            TenantSpec("t", mix=())

    def test_unknown_kind_in_mix_rejected(self):
        with pytest.raises(KeyError):
            TenantSpec("t", mix=(("nope", 1.0),))

    def test_defaults_valid(self):
        assert len(DEFAULT_TENANTS) == 3
        assert {t.priority for t in DEFAULT_TENANTS} == {0, 1, 2}


class TestOpenLoopTrace:
    def test_same_seed_identical_trace(self):
        a = ArrivalProcess(qps=100, duration_s=1.0, seed=3).trace()
        b = ArrivalProcess(qps=100, duration_s=1.0, seed=3).trace()
        assert a == b

    def test_different_seed_differs(self):
        a = ArrivalProcess(qps=100, duration_s=1.0, seed=3).trace()
        b = ArrivalProcess(qps=100, duration_s=1.0, seed=4).trace()
        assert a != b

    def test_sorted_and_within_window(self):
        trace = ArrivalProcess(qps=100, duration_s=1.0, seed=0).trace()
        times = [r.arrival_s for r in trace]
        assert times == sorted(times)
        assert all(0 < t < 1.0 for t in times)

    def test_rate_roughly_respected(self):
        trace = ArrivalProcess(qps=200, duration_s=2.0, seed=1).trace()
        assert 250 < len(trace) < 550  # Poisson(400), generous bounds

    def test_deadline_is_arrival_plus_slo(self):
        trace = ArrivalProcess(qps=50, duration_s=1.0, seed=0).trace()
        by_name = {t.name: t for t in DEFAULT_TENANTS}
        for req in trace:
            slo = by_name[req.tenant].deadline_s
            assert req.deadline_s == pytest.approx(req.arrival_s + slo)

    def test_kinds_come_from_tenant_mix(self):
        trace = ArrivalProcess(qps=200, duration_s=1.0, seed=2).trace()
        by_name = {t.name: t for t in DEFAULT_TENANTS}
        for req in trace:
            assert req.kind in {k for k, _ in by_name[req.tenant].mix}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ArrivalProcess(qps=0, duration_s=1.0)
        with pytest.raises(ValueError):
            ArrivalProcess(qps=10, duration_s=0)


class TestClosedLoop:
    TENANTS = (TenantSpec("loop", mix=(("q6", 1.0),), deadline_s=5.0,
                          elements=500_000, closed_loop_clients=3,
                          think_s=0.1),)

    def test_first_arrivals_one_per_client(self):
        trace = ArrivalProcess(qps=1, duration_s=10.0, tenants=self.TENANTS,
                               seed=0).trace()
        assert len(trace) == 3
        assert {r.client for r in trace} == {0, 1, 2}

    def test_completion_spawns_followup(self):
        proc = ArrivalProcess(qps=1, duration_s=10.0, tenants=self.TENANTS,
                              seed=0)
        first = proc.trace()[0]
        nxt = proc.on_completion(first, 1.0)
        assert nxt is not None
        assert nxt.client == first.client
        assert nxt.arrival_s > 1.0

    def test_no_followup_past_window(self):
        proc = ArrivalProcess(qps=1, duration_s=10.0, tenants=self.TENANTS,
                              seed=0)
        first = proc.trace()[0]
        assert proc.on_completion(first, 10.0) is None

    def test_open_loop_requests_never_follow_up(self):
        proc = ArrivalProcess(qps=50, duration_s=1.0, seed=0)
        req = proc.trace()[0]
        assert req.client == -1
        assert proc.on_completion(req, 0.5) is None
