"""Serve-path plan cache: repeat queries hit, metrics stay byte-identical.

The acceptance property: on a repeat-query workload the dispatch cache
serves >= 90% of dispatches from cache, and the served metrics are
byte-identical to a cache-disabled run of the same trace -- the cache is
a pure latency optimization of the serving control plane, never a
behavior change.
"""

import json

from repro.optimizer import PlanCache
from repro.serve import QueryServer, ServeConfig
from repro.serve.arrivals import QueryRequest

FAR = 1e9  # deadline far enough that nothing sheds


def _repeat_trace(n: int, kind: str = "q6", elements: int = 1_000_000,
                  spacing: float = 0.0):
    return [
        QueryRequest(req_id=i, tenant="t", kind=kind,
                     arrival_s=i * spacing, priority=0, deadline_s=FAR,
                     elements=elements)
        for i in range(n)
    ]


def _summary_json(result) -> str:
    return json.dumps(result.metrics.summary(), sort_keys=True)


class TestRepeatWorkloadHitRate:
    def test_isolated_repeat_queries_hit_over_90_percent(self):
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", plan_cache=cache)
        QueryServer(config=cfg).run(trace=_repeat_trace(40))
        assert cache.hits + cache.misses == 40
        assert cache.hit_rate >= 0.9
        assert cache.misses == 1       # exactly one cold dispatch per kind

    def test_batched_repeat_batches_hit(self):
        cache = PlanCache()
        cfg = ServeConfig(mode="batched", max_batch=8, queue_capacity=256,
                          plan_cache=cache)
        QueryServer(config=cfg).run(trace=_repeat_trace(160))
        assert cache.misses == 1       # 20 identical 8-query batches
        assert cache.hit_rate >= 0.9

    def test_distinct_kinds_key_separately(self):
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", plan_cache=cache)
        trace = _repeat_trace(10, kind="q6") + [
            QueryRequest(req_id=100 + i, tenant="t", kind="q1",
                         arrival_s=0.0, priority=0, deadline_s=FAR,
                         elements=1_000_000)
            for i in range(10)
        ]
        QueryServer(config=cfg).run(trace=trace)
        assert cache.misses == 2       # one cold dispatch per query kind
        assert cache.hits == 18


class TestCacheIsBehaviorNeutral:
    def test_summary_byte_identical_to_cache_disabled(self):
        trace = _repeat_trace(30, spacing=0.001)
        with_cache = QueryServer(config=ServeConfig(
            mode="isolated", plan_cache=PlanCache())).run(trace=list(trace))
        without = QueryServer(config=ServeConfig(
            mode="isolated")).run(trace=list(trace))
        assert _summary_json(with_cache) == _summary_json(without)

    def test_batched_summary_byte_identical(self):
        trace = _repeat_trace(64, spacing=0.0005)
        with_cache = QueryServer(config=ServeConfig(
            plan_cache=PlanCache())).run(trace=list(trace))
        without = QueryServer(config=ServeConfig()).run(trace=list(trace))
        assert _summary_json(with_cache) == _summary_json(without)

    def test_merged_timeline_safe_to_replay(self):
        """Cached timelines are replayed across dispatches; merging them
        must not mutate the cached copy (frozen events, extend copies)."""
        trace = _repeat_trace(10)
        cfg = ServeConfig(mode="isolated", plan_cache=PlanCache())
        result = QueryServer(config=cfg).run(trace=trace)
        a = result.merged_timeline().makespan
        b = result.merged_timeline().makespan
        assert a == b
        assert len(result.segments) == 10


class TestDispatchCorruption:
    def test_corrupted_dispatch_detected_and_recomputed(self):
        trace = _repeat_trace(10, spacing=0.001)
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", plan_cache=cache)
        first = QueryServer(config=cfg).run(trace=list(trace))
        assert cache.misses == 1
        server = QueryServer(config=cfg)
        key = server.engine.dispatch_key([trace[0]], None)
        assert key in cache
        cache._corrupt(key)
        again = server.run(trace=list(trace))
        assert cache.corruptions == 1
        assert cache.misses == 2       # the corrupted entry read as a miss
        assert cache.get(key) is not None     # recomputed and re-cached
        without = QueryServer(config=ServeConfig(
            mode="isolated")).run(trace=list(trace))
        assert _summary_json(again) == _summary_json(first)
        assert _summary_json(again) == _summary_json(without)


class TestChaosNeverCached:
    def test_degraded_dispatches_not_served_from_cache(self):
        from repro.faults import FaultPlan
        cache = PlanCache()
        cfg = ServeConfig(mode="isolated", faults=FaultPlan.chaos(3, rate=0.9),
                          plan_cache=cache)
        result = QueryServer(config=cfg).run(trace=_repeat_trace(8))
        assert result.metrics.degraded_batches > 0
        # a degraded dispatch is never cached -- and with chaos on, every
        # batch keys uniquely anyway (reseeded fault plan in the key)
        assert cache.hits == 0
