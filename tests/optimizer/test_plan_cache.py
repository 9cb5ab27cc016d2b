"""Plan cache correctness: hits, perturbation misses, eviction,
corruption; and executors that keep no plan-derived artifacts.

The load-bearing properties: a hit is only served for a byte-identical
(plan, stats, platform, cluster shape) key; *any* perturbation of those
inputs re-keys; an evicted or corrupted entry recomputes to a
byte-identical decision rather than serving stale or damaged state.
"""

import dataclasses
import json

from repro.optimizer import Optimizer, PlanCache, calibration_fingerprint
from repro.runtime.select_chain import select_chain_plan
from repro.simgpu import DeviceSpec

ROWS = {"input": 1_000_000}


def _summary_json(decision) -> str:
    return json.dumps(decision.summary(), sort_keys=True)


class TestPlanCacheUnit:
    def test_roundtrip_and_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes a's recency
        cache.put("c", 3)               # evicts b, the LRU entry
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_invalidate_and_counters(self):
        cache = PlanCache()
        cache.put("k", "v")
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.invalidations == 1
        assert cache.get("k") is None
        assert cache.stats()["cache.misses"] == 1

    def test_corrupted_entry_is_a_miss_not_a_value(self):
        cache = PlanCache()
        cache.put("k", {"answer": 42})
        cache._corrupt("k")
        assert cache.get("k") is None
        assert cache.corruptions == 1
        assert "k" not in cache         # dropped, not served


class TestDecisionCacheHits:
    def test_repeat_choose_hits_and_matches(self):
        opt = Optimizer(cache=PlanCache())
        plan = select_chain_plan(2)
        first = opt.choose(plan, ROWS)
        second = opt.choose(plan, ROWS)
        assert not first.cache_hit and second.cache_hit
        assert _summary_json(first) == _summary_json(second)

    def test_stats_perturbation_misses(self):
        opt = Optimizer(cache=PlanCache())
        plan = select_chain_plan(2)
        opt.choose(plan, ROWS)
        perturbed = opt.choose(plan, {"input": ROWS["input"] + 1})
        assert not perturbed.cache_hit
        assert perturbed.stats_digest != opt.choose(plan, ROWS).stats_digest

    def test_calibration_perturbation_misses(self):
        cache = PlanCache()
        plan = select_chain_plan(2)
        base = DeviceSpec()
        Optimizer(base, cache=cache).choose(plan, ROWS)
        gpu = dataclasses.replace(
            base.calib.gpu,
            mem_bw_efficiency=base.calib.gpu.mem_bw_efficiency / 2)
        slower = dataclasses.replace(
            base, calib=dataclasses.replace(base.calib, gpu=gpu))
        assert (calibration_fingerprint(slower)
                != calibration_fingerprint(base))
        retuned = Optimizer(slower, cache=cache).choose(plan, ROWS)
        assert not retuned.cache_hit

    def test_cluster_spec_perturbation_misses(self):
        cache = PlanCache()
        plan = select_chain_plan(2)
        opt = Optimizer(cache=cache)
        opt.choose(plan, ROWS, max_devices=1)
        assert not opt.choose(plan, ROWS, max_devices=2).cache_hit
        sharers = Optimizer(cache=cache, pcie_sharers=4)
        assert not sharers.choose(plan, ROWS, max_devices=1).cache_hit

    def test_eviction_recomputes_byte_identical(self):
        cache = PlanCache(capacity=1)
        opt = Optimizer(cache=cache)
        first = opt.choose(select_chain_plan(2), ROWS)
        opt.choose(select_chain_plan(3), ROWS)   # evicts the first decision
        assert first.cache_key not in cache
        recomputed = opt.choose(select_chain_plan(2), ROWS)
        assert not recomputed.cache_hit
        assert _summary_json(recomputed) == _summary_json(first)

    def test_corruption_detected_and_recomputed(self):
        cache = PlanCache()
        opt = Optimizer(cache=cache)
        first = opt.choose(select_chain_plan(2), ROWS)
        cache._corrupt(first.cache_key)
        recomputed = opt.choose(select_chain_plan(2), ROWS)
        assert not recomputed.cache_hit
        assert cache.corruptions == 1
        assert _summary_json(recomputed) == _summary_json(first)
        # and the repaired entry serves hits again
        assert opt.choose(select_chain_plan(2), ROWS).cache_hit


class TestAbsintVerdictCorruption:
    def test_corrupted_memory_verdict_detected_and_recomputed(self):
        from repro.runtime import Strategy
        cache = PlanCache()
        opt = Optimizer(cache=cache)
        plan = select_chain_plan(2)
        first = opt.choose(plan, ROWS)
        key = PlanCache.key("absint", first.plan_fp, first.stats_digest,
                            first.calibration_fp, Strategy.FUSED.value)
        verdict = cache.get(key)
        assert verdict is not None
        cache._corrupt(key)
        # drop the decision so the next choose() re-reads its verdicts
        cache.invalidate(first.cache_key)
        recomputed = opt.choose(plan, ROWS)
        assert not recomputed.cache_hit
        assert cache.corruptions == 1
        assert _summary_json(recomputed) == _summary_json(first)
        assert (_summary_json(recomputed)
                == _summary_json(Optimizer().choose(plan, ROWS)))
        # the repaired entry holds a freshly computed, equal verdict
        assert cache.get(key) == verdict


def _node(plan, name: str):
    return next(n for n in plan.nodes if n.name == name)


class TestExecutorsKeepNoArtifacts:
    """Executors recompute size estimation, fusion and the distribution
    rewrite on every run: repeats agree exactly, and an in-place edit to
    the plan between runs is always seen."""

    def test_executor_repeat_runs_identical(self):
        from repro.runtime import ExecutionConfig, Executor, Strategy
        ex = Executor()
        plan = select_chain_plan(2)
        cfg = ExecutionConfig(strategy=Strategy.FUSED)
        a = ex.run(plan, ROWS, cfg)
        b = ex.run(plan, ROWS, cfg)
        assert a.makespan == b.makespan
        assert a.timeline.events == b.timeline.events

    def test_cluster_executor_repeat_runs_identical(self):
        from repro.cluster import ClusterConfig, ClusterExecutor
        cx = ClusterExecutor(config=ClusterConfig(num_devices=4))
        plan = select_chain_plan(2)
        a = cx.run(plan, ROWS)
        b = cx.run(plan, ROWS)
        assert a.makespan == b.makespan
        assert (a.merged_timeline().events
                == b.merged_timeline().events)

    def test_in_place_selectivity_edit_is_never_served_stale(self):
        from repro.cluster import ClusterConfig, ClusterExecutor
        from repro.runtime import ExecutionConfig, Executor, Strategy
        ex = Executor()
        cx = ClusterExecutor(config=ClusterConfig(num_devices=4))
        cfg = ExecutionConfig(strategy=Strategy.FUSED)
        plan = select_chain_plan(2)
        before = ex.run(plan, ROWS, cfg)
        before_cluster = cx.run(plan, ROWS)
        _node(plan, "select0").selectivity = 0.1
        after = ex.run(plan, ROWS, cfg)
        after_cluster = cx.run(plan, ROWS)
        assert after.n_out != before.n_out
        assert after.makespan != before.makespan
        assert after_cluster.makespan != before_cluster.makespan
        # and the edited plan runs exactly like one built that way
        fresh = select_chain_plan(2)
        _node(fresh, "select0").selectivity = 0.1
        assert after.makespan == Executor().run(fresh, ROWS, cfg).makespan
        assert after_cluster.makespan == ClusterExecutor(
            config=ClusterConfig(num_devices=4)).run(fresh, ROWS).makespan
