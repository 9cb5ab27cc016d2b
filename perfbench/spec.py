"""What the benchmark measures: metrics, workloads, and the layer map.

``python3 perfbench/spec.py`` writes ``BENCHMARK.json`` at the repository
root from the definitions below; ``run.py`` prints exactly these metrics.

End-to-end metrics are printed for every workload.  Where a metric is
native to some workloads only, the other workloads report its closed-loop
counterpart (the definitions are in ``END_TO_END_MEANING``).  The SLO miss
ratio has no counterpart outside serve-mix (nothing else has a deadline),
so it is reported as ``serve.sim_slo_miss_ratio`` with the layer metrics
and on every serve-mix line; failures are the result's ``failed`` /
``attempted``.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

WORKLOADS = {
    "tpch-sql": "ra kernels and plans.interp do nearly all the op's wall "
                "time; no optimizer or serve code runs (closed loop, one "
                "client, 22 TPC-H queries SQL to result)",
    "serve-mix": "open-loop serving near the knee with no plan cache: DES "
                 "and kernel emission dominate and no ra code runs, so ra "
                 "and cache work must not move it",
    "plan-cluster": "the only working set larger than the program's own "
                    "PlanCache: optimizer, absint, cluster and exchange "
                    "pricing over a Zipf-skewed request stream",
}

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("ops/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "sim_makespan_ms": ("sim_ms", "lower", 0.05),
    "sim_goodput_qps": ("sim_q/s", "higher", 0.05),
    "sim_p99_ms": ("sim_ms", "lower", 0.15),
}

END_TO_END_MEANING = {
    "setup_s": "import, data and trace generation, catalog plan warm-up, "
               "DispatchEngine.warm, plan-cluster cache-fill prefix; "
               "the median of 3 (import + set-up), the set-ups in the "
               "run's process, imports after the first in fresh "
               "interpreters",
    "ops_per_s": "ops completed per wall second of the timed region; an "
                 "op is a query (tpch-sql), an offered query (serve-mix, "
                 "where shed ones do not count as completed), a request "
                 "(plan-cluster)",
    "op_p50_ms": "median wall latency of an op; on serve-mix the wall time "
                 "of the dispatch round that produced a served query",
    "op_p90_ms": "p90 wall latency of an op, same definition",
    "peak_rss_mb": "ru_maxrss of the workload's process, read after the "
                   "timed region and before the output checks",
    "sim_makespan_ms": "sum of the simulated makespans of the ops (serve-"
                       "mix: of its batch dispatches)",
    "sim_goodput_qps": "serve-mix: ServeMetrics.goodput_qps; closed loops: "
                       "ops per simulated second",
    "sim_p99_ms": "p99 simulated latency (closed loops: op makespan)",
}

#: name -> (unit, better)
PER_LAYER = {
    "tpch.datagen_ms": ("ms", "lower"),
    "frontend.compile_ms": ("ms", "lower"),
    "frontend.compile_calls": ("count", "lower"),
    "frontend.reference_ms": ("ms", "lower"),
    "core.fuse_ms": ("ms", "lower"),
    "core.fused_regions": ("count", "higher"),
    "analyze.absint_ms": ("ms", "lower"),
    "analyze.absint_calls": ("count", "lower"),
    "optimizer.choose_ms": ("ms", "lower"),
    "optimizer.options_priced": ("count", "lower"),
    "optimizer.cache_ms": ("ms", "lower"),
    "optimizer.cache_lookups": ("count", "lower"),
    "optimizer.cache_hit_ratio": ("ratio", "higher"),
    "optimizer.cache_evictions": ("count", "lower"),
    "plans.topological_calls": ("count", "lower"),
    "plans.topological_ms": ("ms", "lower"),
    "plans.validate_calls": ("count", "lower"),
    "plans.interp_ms": ("ms", "lower"),
    "ra.aggregate_ms": ("ms", "lower"),
    "ra.join_ms": ("ms", "lower"),
    "ra.take_ms": ("ms", "lower"),
    "ra.calls": ("count", "lower"),
    "ra.rows_out": ("rows", "lower"),
    "runtime.executor_ms": ("ms", "lower"),
    "runtime.executor_runs": ("count", "lower"),
    "runtime.workload_ms": ("ms", "lower"),
    "simgpu.des_ms": ("ms", "lower"),
    "simgpu.des_runs": ("count", "lower"),
    "simgpu.des_events": ("count", "lower"),
    "simgpu.des_events_per_s": ("events/s", "higher"),
    "cluster.run_ms": ("ms", "lower"),
    "cluster.runs": ("count", "lower"),
    "cluster.exchange_bytes": ("B", "lower"),
    "serve.loop_ms": ("ms", "lower"),
    "serve.dispatch_ms": ("ms", "lower"),
    "serve.dispatches": ("count", "lower"),
    "serve.batch_fill": ("ratio", "higher"),
    "serve.sim_utilization": ("ratio", "higher"),
    "serve.sim_slo_miss_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: layer -> (wrapped entry points, per-layer metrics, the end-to-end
#: metrics @ workloads each should move); written down before measuring
LAYER_MAP = {
    "tpch": ("tpch_dataset, generate", ["tpch.datagen_ms"],
             "setup_s @ tpch-sql"),
    "frontend": ("bind_sql, lower, compile_tpch",
                 ["frontend.compile_ms", "frontend.compile_calls"],
                 "op_p50_ms @ tpch-sql; setup_s @ serve-mix, plan-cluster"),
    "frontend (oracle)": ("frontend.reference_execute",
                          ["frontend.reference_ms"],
                          "none: it runs in the check, outside ops"),
    "core": ("fuse_plan", ["core.fuse_ms", "core.fused_regions"],
             "op_p50_ms and sim_makespan_ms @ tpch-sql"),
    "analyze": ("memory_check.check_strategy, absint.plan_envelopes",
                ["analyze.absint_ms", "analyze.absint_calls"],
                "op_p50_ms @ plan-cluster"),
    "optimizer": ("Optimizer.choose, PlanCache.get/put",
                  ["optimizer.choose_ms", "optimizer.options_priced",
                   "optimizer.cache_ms", "optimizer.cache_lookups",
                   "optimizer.cache_hit_ratio", "optimizer.cache_evictions"],
                  "ops_per_s, op_p90_ms @ plan-cluster; no change @ "
                  "serve-mix"),
    "plans": ("Plan.topological, Plan.validate, plans.interp.evaluate",
              ["plans.topological_calls", "plans.topological_ms",
               "plans.validate_calls", "plans.interp_ms"],
              "ops_per_s @ serve-mix, plan-cluster (graph walks); @ "
              "tpch-sql (interp)"),
    "ra": ("ra.arithmetic.aggregate, ra.operators joins, Relation.take",
           ["ra.aggregate_ms", "ra.join_ms", "ra.take_ms", "ra.calls",
            "ra.rows_out"],
           "ops_per_s, op_p90_ms @ tpch-sql; nothing elsewhere"),
    "runtime": ("Executor.run, WorkloadScheduler.run_batched_streams",
                ["runtime.executor_ms", "runtime.executor_runs",
                 "runtime.workload_ms"],
                "ops_per_s @ serve-mix (workload), plan-cluster (executor)"),
    "simgpu": ("SimEngine.run",
               ["simgpu.des_ms", "simgpu.des_runs", "simgpu.des_events",
                "simgpu.des_events_per_s"],
               "ops_per_s @ serve-mix"),
    "cluster": ("ClusterExecutor.run",
                ["cluster.run_ms", "cluster.runs", "cluster.exchange_bytes"],
                "ops_per_s, sim_makespan_ms @ plan-cluster"),
    "serve": ("QueryServer.run, DispatchEngine.dispatch",
              ["serve.loop_ms", "serve.dispatch_ms", "serve.dispatches",
               "serve.batch_fill", "serve.sim_utilization",
               "serve.sim_slo_miss_ratio"],
              "ops_per_s @ serve-mix (loop, dispatch); sim_goodput_qps @ "
              "serve-mix (fill, utilization, SLO misses)"),
    "trace": ("traced wall of the timed region over the same minus "
              "spans x the cost of one span, measured in-process",
              ["trace.overhead_ratio"], "none"),
}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b) in PER_LAYER.items()],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {out}")
