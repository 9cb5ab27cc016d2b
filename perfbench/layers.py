"""Which public call of each layer is traced, and the per-layer metrics.

Every ``*_ms`` value is self time summed over the layer's spans; counts
come from span calls or from the work count a span took from its result.
A layer a workload never calls reports 0, which is itself the prediction
for that workload (see ``spec.LAYER_MAP``).
"""

from __future__ import annotations

import importlib

from tracing import Tracer

COMPILE_SPANS = ("frontend.bind_sql", "frontend.lower",
                 "frontend.compile_tpch")
REFERENCE_SPAN = "frontend.reference_execute"
JOIN_SPANS = ("ra.join", "ra.left_join", "ra.semi_join", "ra.anti_join")
RA_SPANS = ("ra.aggregate", "ra.take") + JOIN_SPANS


def _rows(out, args, pre):
    return out.num_rows


def _events(out, args, pre):
    return len(out.events) - pre


def _events_before(args, kwargs):
    timeline = args[2] if len(args) > 2 else kwargs.get("timeline")
    return len(timeline.events) if timeline is not None else 0


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry point (``spec.LAYER_MAP`` lists
    them); the program itself is not modified."""
    from repro.cluster.executor import ClusterExecutor
    from repro.optimizer import Optimizer, PlanCache
    from repro.plans.plan import Plan
    from repro.ra.relation import Relation
    from repro.runtime.executor import Executor
    from repro.runtime.workload import WorkloadScheduler
    from repro.serve.dispatch import DispatchEngine
    from repro.serve.server import QueryServer
    from repro.simgpu.engine import SimEngine

    # module objects, not package attributes: ``repro.frontend.lower`` as
    # an attribute is the function the package re-exports
    (absint, memory_check, fusion, binder, lower, reference, interp,
     arithmetic, operators, catalog, datagen) = (
        importlib.import_module(f"repro.{m}") for m in (
            "analyze.absint", "analyze.memory_check", "core.fusion",
            "frontend.binder", "frontend.lower", "frontend.reference",
            "plans.interp", "ra.arithmetic", "ra.operators", "tpch.catalog",
            "tpch.datagen"))

    fn, meth = tracer.wrap_function, tracer.wrap_method
    fn(catalog, "tpch_dataset", "tpch.tpch_dataset")
    fn(datagen, "generate", "tpch.generate")
    fn(binder, "bind_sql", "frontend.bind_sql")
    fn(lower, "lower", "frontend.lower")
    fn(catalog, "compile_tpch", "frontend.compile_tpch")
    fn(reference, "execute", REFERENCE_SPAN)
    fn(fusion, "fuse_plan", "core.fuse_plan",
       lambda out, args, pre: out.num_fused_regions)
    fn(memory_check, "check_strategy", "analyze.check_strategy")
    fn(absint, "plan_envelopes", "analyze.plan_envelopes")
    meth(Optimizer, "choose", "optimizer.choose",
         lambda out, args, pre: 0 if out.cache_hit else len(out.candidates))
    meth(PlanCache, "get", "optimizer.cache_get",
         lambda out, args, pre: int(out is not None))
    meth(PlanCache, "put", "optimizer.cache_put",
         lambda out, args, pre: args[0].evictions - pre,
         before=lambda args, kwargs: args[0].evictions)
    meth(Plan, "topological", "plans.topological")
    meth(Plan, "validate", "plans.validate")
    fn(interp, "evaluate", "plans.evaluate")
    fn(arithmetic, "aggregate", "ra.aggregate", _rows)
    for name in ("join", "left_join", "semi_join", "anti_join"):
        fn(operators, name, f"ra.{name}", _rows)
    meth(Relation, "take", "ra.take", _rows)
    meth(Executor, "run", "runtime.executor_run")
    meth(WorkloadScheduler, "run_batched_streams",
         "runtime.run_batched_streams")
    meth(SimEngine, "run", "simgpu.run", _events, before=_events_before)
    meth(ClusterExecutor, "run", "cluster.run",
         lambda out, args, pre: out.exchange_out_bytes)
    meth(QueryServer, "run", "serve.run",
         lambda out, args, pre: (out.metrics.batch_sizes,
                                 args[0].config.max_batch,
                                 out.metrics.utilization))
    meth(DispatchEngine, "dispatch", "serve.dispatch")


def metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    agg = tracer.by_name()

    def ms(*names):
        return sum(agg[n]["self_s"] for n in names) * 1e3

    def calls(*names):
        return sum(agg[n]["calls"] for n in names)

    def total(*names):
        return sum(sum(agg[n]["infos"]) for n in names)

    lookups = calls("optimizer.cache_get")
    des_s = ms("simgpu.run") / 1e3
    sizes, slots, util = [], 0, []
    for batch_sizes, max_batch, utilization in agg["serve.run"]["infos"]:
        sizes.extend(batch_sizes)
        slots += len(batch_sizes) * max_batch
        util.append(utilization)
    return {
        "tpch.datagen_ms": ms("tpch.tpch_dataset", "tpch.generate"),
        "frontend.compile_ms": ms(*COMPILE_SPANS),
        "frontend.compile_calls": calls("frontend.bind_sql"),
        "frontend.reference_ms": ms(REFERENCE_SPAN),
        "core.fuse_ms": ms("core.fuse_plan"),
        "core.fused_regions": total("core.fuse_plan"),
        "analyze.absint_ms": ms("analyze.check_strategy",
                                "analyze.plan_envelopes"),
        "analyze.absint_calls": calls("analyze.check_strategy",
                                      "analyze.plan_envelopes"),
        "optimizer.choose_ms": ms("optimizer.choose"),
        "optimizer.options_priced": total("optimizer.choose"),
        "optimizer.cache_ms": ms("optimizer.cache_get",
                                 "optimizer.cache_put"),
        "optimizer.cache_lookups": lookups,
        "optimizer.cache_hit_ratio": (total("optimizer.cache_get") / lookups
                                      if lookups else 0.0),
        "optimizer.cache_evictions": total("optimizer.cache_put"),
        "plans.topological_calls": calls("plans.topological"),
        "plans.topological_ms": ms("plans.topological"),
        "plans.validate_calls": calls("plans.validate"),
        "plans.interp_ms": ms("plans.evaluate"),
        "ra.aggregate_ms": ms("ra.aggregate"),
        "ra.join_ms": ms(*JOIN_SPANS),
        "ra.take_ms": ms("ra.take"),
        "ra.calls": calls(*RA_SPANS),
        "ra.rows_out": total(*RA_SPANS),
        "runtime.executor_ms": ms("runtime.executor_run"),
        "runtime.executor_runs": calls("runtime.executor_run"),
        "runtime.workload_ms": ms("runtime.run_batched_streams"),
        "simgpu.des_ms": des_s * 1e3,
        "simgpu.des_runs": calls("simgpu.run"),
        "simgpu.des_events": total("simgpu.run"),
        "simgpu.des_events_per_s": (total("simgpu.run") / des_s
                                    if des_s else 0.0),
        "cluster.run_ms": ms("cluster.run"),
        "cluster.runs": calls("cluster.run"),
        "cluster.exchange_bytes": total("cluster.run"),
        "serve.loop_ms": ms("serve.run"),
        "serve.dispatch_ms": ms("serve.dispatch"),
        "serve.dispatches": calls("serve.dispatch"),
        "serve.batch_fill": sum(sizes) / slots if slots else 0.0,
        "serve.sim_utilization": sum(util) / len(util) if util else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
