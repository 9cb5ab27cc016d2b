"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info        print the simulated platform (Table II)
select      run the SELECT-chain microbenchmark under every strategy
q1 / q21 / q6
            run a TPC-H query functionally (synthetic data) and report the
            simulated strategy comparison
optimize    price every execution strategy for a query with the
            cost-based optimizer (docs/OPTIMIZER.md): --explain prints
            the full pricing table, --no-cache disables the
            compiled-plan cache, --repeat exercises cache hits
fuse        show what the fusion pass does to a query plan (+ rendered
            fused-kernel source with --render)
trace       write a Chrome trace of a strategy run for visual inspection
serve       run the query-serving simulation (docs/SERVING.md): seeded
            arrivals, admission control, memory-aware batching, SLO report
            (--devices N serves over N contended device lanes)
cluster     run a TPC-H query sharded over N simulated devices
            (docs/CLUSTER.md): deterministic partitioning, exchange/merge,
            shared-host PCIe contention, device-loss recovery
analyze     static analysis (docs/ANALYSIS.md) over the built-in corpus:
            plan lints, fusion-legality verification, stream-program race
            detection, IR lints, cluster lints; --strict fails on error
            findings (the CI lint gate)
"""

from __future__ import annotations

import argparse
import sys

from .core.fusion import fuse_plan
from .core.render import render_fused_kernel
from .faults import parse_chaos
from .plans import evaluate_sinks, pattern_census
from .runtime import ExecutionConfig, Executor, Strategy
from .runtime.select_chain import run_select_chain, select_chain_plan
from .simgpu import DeviceSpec, describe_environment
from .simgpu.trace import write_chrome_trace
from .tpch import (
    TpchConfig,
    build_q1_plan,
    build_q21_plan,
    build_q6_plan,
    generate,
    q1_column_relations,
    q1_source_rows,
    q21_source_rows,
    q6_source_rows,
)

_QUERIES = {
    "q1": (build_q1_plan, lambda n: q1_source_rows(n)),
    "q21": (build_q21_plan, lambda n: q21_source_rows(n, n // 4, max(1, n // 600))),
    "q6": (build_q6_plan, lambda n: q6_source_rows(n)),
}


def _cmd_info(args) -> int:
    print(describe_environment(DeviceSpec()))
    return 0


def _cmd_select(args) -> int:
    print(describe_environment(DeviceSpec()))
    print(f"\nSELECT chain: {args.num} x SELECT({args.selectivity:.0%}) over "
          f"{args.elements/1e6:.0f}M 32-bit ints")
    for strategy in Strategy:
        r = run_select_chain(args.elements, args.num, args.selectivity, strategy,
                             check=args.validate, faults=args.chaos)
        chaos = ""
        if args.chaos is not None:
            chaos = (f"  [chaos: {r.faults_injected} fault(s), "
                     f"{r.retries} retried"
                     + (f", degraded to {r.degraded_to}" if r.degraded_to
                        else "") + "]")
        print(f"  {strategy.value:16s} {r.throughput/1e9:7.2f} GB/s "
              f"({r.makespan*1e3:9.1f} ms, {r.num_chunks} chunk(s)){chaos}")
    return 0


def _cmd_query(args) -> int:
    build, rows_fn = _QUERIES[args.command]
    plan = build()
    rows = rows_fn(args.elements)

    if args.functional:
        data = generate(TpchConfig(scale_factor=args.scale_factor))
        if args.command == "q1":
            sources = q1_column_relations(data.lineitem)
        elif args.command == "q6":
            sources = {"lineitem": data.lineitem}
        else:
            sources = {"lineitem": data.lineitem, "orders": data.orders,
                       "supplier": data.supplier, "nation": data.nation}
        out = evaluate_sinks(plan, sources)
        for name, rel in out.items():
            print(f"{name}: {rel.num_rows} rows, fields {rel.fields}")

    print(f"\npattern census: {pattern_census(plan)}")
    print(fuse_plan(plan).describe())
    print(f"\nsimulated at {args.elements/1e6:.0f}M lineitems:")
    ex = Executor(check=args.validate, faults=args.chaos)
    base = None
    for strategy in (Strategy.SERIAL, Strategy.FUSED, Strategy.FUSED_FISSION):
        r = ex.run(plan, rows, ExecutionConfig(strategy=strategy))
        base = base or r.makespan
        chaos = ""
        if args.chaos is not None:
            chaos = (f"  [chaos: {r.faults_injected} fault(s), "
                     f"{r.retries} retried"
                     + (f", degraded to {r.degraded_to}" if r.degraded_to
                        else "") + "]")
        print(f"  {strategy.value:16s} {r.makespan*1e3:9.1f} ms "
              f"({r.makespan/base:5.3f} of baseline){chaos}")
    from .optimizer import Optimizer
    decision = Optimizer(ex.device).choose(plan, rows, include_cpubase=False)
    auto = ex.run(plan, rows,
                  ExecutionConfig(strategy=decision.chosen.option.strategy))
    print(f"  auto -> {decision.chosen.label} "
          f"({auto.makespan*1e3:.1f} ms)")
    for cand in decision.ranked():
        marker = " (chosen)" if cand.option == decision.chosen.option else ""
        print(f"       - {cand.label}: {cand.price_s*1e3:.3f} ms "
              f"simulated{marker}")
    return 0


def _cmd_optimize(args) -> int:
    import json

    from .optimizer import Optimizer, PlanCache

    if args.query in _QUERIES:
        build, rows_fn = _QUERIES[args.query]
        plan, rows = build(), rows_fn(args.elements)
    else:
        plan, rows = select_chain_plan(3), {"input": args.elements}

    cache = None if args.no_cache else PlanCache()
    opt = Optimizer(cache=cache)
    decision = None
    for _ in range(max(1, args.repeat)):
        decision = opt.choose(plan, rows, max_devices=args.devices)
    cached = " [cached decision]" if decision.cache_hit else ""
    print(f"chosen: {decision.chosen.label} "
          f"({decision.chosen.price_s*1e3:.3f} ms simulated){cached}")
    if args.explain:
        print()
        print(decision.explain())
    if cache is not None:
        st = cache.stats()
        print(f"cache: {st['cache.hits']} hit(s), "
              f"{st['cache.misses']} miss(es), "
              f"hit rate {st['cache.hit_rate']:.3f}")
    if args.summary:
        payload = decision.summary()
        if cache is not None:
            payload.update(cache.stats())
        with open(args.summary, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote optimizer summary to {args.summary}")
    return 0


def _cmd_fuse(args) -> int:
    plan = (_QUERIES[args.query][0]() if args.query in _QUERIES
            else select_chain_plan(3))
    fr = fuse_plan(plan)
    print(fr.describe())
    if args.render:
        for region in fr.regions:
            if region.fused:
                print()
                print(render_fused_kernel(region.nodes))
    return 0


def _cmd_trace(args) -> int:
    from .analyze import Analyzer

    strategy = Strategy(args.strategy)
    r = run_select_chain(args.elements, 2, 0.5, strategy,
                         check=args.validate, faults=args.chaos)
    # attach the static pre-flight's verdict on the traced plan as trace
    # metadata, so the exported JSON records what the analyzer said
    an = Analyzer()
    report = an.run(select_chain_plan(2))
    if r.fusion is not None:
        report.merge(an.run(r.fusion))
    write_chrome_trace(r.timeline, args.output, analysis=report.summary())
    print(f"wrote {len(r.timeline.events)} events to {args.output} "
          f"(open in chrome://tracing)")
    return 0


def _cmd_analyze(args) -> int:
    import json

    from .analyze import AnalysisReport, Analyzer, Baseline, write_baseline
    from .analyze import corpus as _corpus

    if args.prune_baseline and not args.baseline:
        print("--prune-baseline requires --baseline", file=sys.stderr)
        return 2
    baseline = Baseline.load(args.baseline) if args.baseline else None
    an = Analyzer(DeviceSpec(), baseline=baseline)
    merged = AnalysisReport()
    targets = _corpus.default_corpus(n_fuzz_seeds=args.fuzz_seeds)
    for label, target in targets:
        merged.merge(an.run(target, unit=label))

    if args.write_baseline:
        write_baseline(args.write_baseline,
                       merged.diagnostics + merged.suppressed)
        print(f"wrote baseline ({len(merged.diagnostics)} finding(s)) "
              f"to {args.write_baseline}")
        return 0
    stale = baseline.unused_suppressions() if baseline is not None else []
    if stale and args.prune_baseline and args.strict:
        with open(args.baseline, "w", encoding="utf-8") as f:
            f.write(baseline.pruned().render())
        print(f"pruned {len(stale)} stale suppression(s) from "
              f"{args.baseline}", file=sys.stderr)
    if args.json:
        payload = merged.json_payload(targets=len(targets), stale=stale)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"analyzed {len(targets)} target(s) "
              f"({args.fuzz_seeds} fuzz seed(s))")
        print(merged.render())
        for sup in stale:
            print(f"stale suppression (matched nothing): {sup.render()}")
    if args.strict and not merged.ok:
        print(f"strict: {len(merged.errors)} error-severity finding(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import json

    from .serve import ArrivalProcess, QueryServer, ServeConfig
    from .simgpu.trace import write_chrome_trace

    arrivals = ArrivalProcess(qps=args.qps, duration_s=args.duration,
                              seed=args.seed)
    trace = arrivals.trace()
    modes = (["batched", "isolated"] if args.mode == "both" else [args.mode])
    results = {}
    for mode in modes:
        cfg = ServeConfig(
            mode=mode, queue_capacity=args.queue_depth,
            max_batch=args.max_batch, max_streams=args.max_streams,
            check=args.validate, analyze=args.analyze,
            shed_unsafe=args.shed_unsafe, faults=args.chaos,
            devices=args.devices)
        # each mode serves the identical offered trace
        server = QueryServer(config=cfg)
        results[mode] = server.run(trace=list(trace))
        print(f"\n=== mode: {mode} "
              f"(qps {args.qps:g}, {args.duration:g} s offered, "
              f"seed {args.seed})" + (" [chaos]" if args.chaos else "")
              + " ===")
        print(results[mode].metrics.render())
    if len(results) == 2:
        b, i = results["batched"].metrics, results["isolated"].metrics
        print(f"\nbatched vs isolated: goodput {b.goodput_qps:.2f} vs "
              f"{i.goodput_qps:.2f} q/s, p99 {b.latency.percentile(99)*1e3:.1f}"
              f" vs {i.latency.percentile(99)*1e3:.1f} ms")
    if args.summary:
        payload = {
            mode: {"config": {"qps": args.qps, "duration": args.duration,
                              "seed": args.seed, "mode": mode,
                              "chaos": bool(args.chaos)},
                   "metrics": res.metrics.summary()}
            for mode, res in results.items()
        }
        with open(args.summary, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"\nwrote metrics summary to {args.summary}")
    if args.trace_output:
        res = results[modes[0]]
        write_chrome_trace(res.merged_timeline(), args.trace_output,
                           process_name=f"serve.{modes[0]}")
        print(f"wrote serve trace to {args.trace_output}")
    return 0


def _cmd_cluster(args) -> int:
    import json

    from .cluster import ClusterConfig, ClusterExecutor, single_device_makespan
    from .faults import FaultPlan
    from .simgpu.trace import write_cluster_trace

    build, rows_fn = _QUERIES[args.query]
    plan = build()
    rows = rows_fn(args.elements)

    faults = args.chaos
    if args.kill_device is not None:
        # a deterministic device loss at the given slot, before phase 1
        faults = FaultPlan(
            seed=args.chaos.seed if args.chaos is not None else 0,
            site_rates={f"device.{args.kill_device}": 1.0}, budget=1)
    cfg = ClusterConfig(
        num_devices=args.devices, scheme=args.partition, seed=args.seed,
        check=args.validate, faults=faults,
        preagg=not args.no_preagg,
        merge="flat" if args.flat_merge else None)
    cx = ClusterExecutor(config=cfg)
    result = cx.run(plan, rows)

    dist = result.dist
    print(f"{dist.name}: {args.devices} device(s), {args.partition} "
          f"partitioning, suffix mode {dist.suffix_mode}")
    print(f"  partition key: "
          f"{'/'.join(dist.partition_key or ()) or 'positional (rowid)'}")
    if dist.preagg is not None:
        pre = dist.preagg
        print(f"  pre-aggregation: {pre.agg} below the cut "
              f"(~{pre.est_groups} groups x {pre.state_row_nbytes} B "
              f"states, {'exact' if pre.exact else 'timing-only'} combine)")
    print(f"  merge strategy: {dist.merge}; exchange "
          f"{result.exchange_out_bytes:,.0f} B total, "
          f"{result.exchange_out_per_device:,.0f} B/device outbound")
    single = single_device_makespan(plan, rows)
    print(f"  cluster makespan {result.makespan*1e3:9.3f} ms  "
          f"(single device {single*1e3:9.3f} ms, "
          f"speedup {single/result.makespan:5.2f}x)")
    if result.lost_devices:
        print(f"  chaos: lost device(s) {list(result.lost_devices)}, "
              f"{result.recovered_shards} shard(s) re-executed on survivors")

    if args.functional:
        data = generate(TpchConfig(scale_factor=args.scale_factor))
        if args.query == "q1":
            sources = q1_column_relations(data.lineitem)
        else:
            sources = {"lineitem": data.lineitem, "orders": data.orders,
                       "supplier": data.supplier, "nation": data.nation}
        got = cx.functional(plan, sources)
        want = evaluate_sinks(plan, sources)
        for name in sorted(want):
            same = got[name].same_tuples(want[name])
            print(f"  functional {name}: {got[name].num_rows} rows, "
                  f"byte-identical to single device: {same}")
            if not same:
                return 1

    if args.summary:
        summ = result.summary()
        # both inputs are deterministic, so the gate keys stay byte-stable
        summ["cluster.single_device_makespan_s"] = round(single, 9)
        summ["cluster.speedup_vs_single"] = round(single / result.makespan, 6)
        with open(args.summary, "w") as f:
            json.dump(summ, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote cluster summary to {args.summary}")
    if args.trace_output:
        write_cluster_trace(result.trace_lanes(), args.trace_output)
        n_events = sum(len(tl.events) for _, tl in result.trace_lanes())
        print(f"wrote {n_events} events over "
              f"{len(result.trace_lanes())} lanes to {args.trace_output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kernel fusion/fission for GPU data warehousing "
                    "(IPDPS-W 2012 reproduction)")
    parser.add_argument(
        "--validate", action="store_true",
        help="strict mode: sanitize every simulated schedule against the "
             "device-model invariants (see docs/VALIDATION.md) and abort "
             "on the first violation")
    parser.add_argument(
        "--chaos", metavar="SEED[:RATE]", type=parse_chaos, default=None,
        help="deterministic fault injection on the simulated platform "
             "(see docs/FAULTS.md): seeds transient transfer/launch "
             "failures, stream stalls and spurious OOM at the given rate "
             "(default 0.02); the runtime retries and degrades, and the "
             "run reports what was injected")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the simulated platform")

    p_sel = sub.add_parser("select", help="SELECT-chain microbenchmark")
    p_sel.add_argument("--elements", type=int, default=200_000_000)
    p_sel.add_argument("--num", type=int, default=2)
    p_sel.add_argument("--selectivity", type=float, default=0.5)

    for q in _QUERIES:
        p_q = sub.add_parser(q, help=f"TPC-H {q.upper()}")
        p_q.add_argument("--elements", type=int, default=6_000_000,
                         help="simulated lineitem cardinality")
        p_q.add_argument("--functional", action="store_true",
                         help="also run the query on generated data")
        p_q.add_argument("--scale-factor", type=float, default=0.01)

    p_opt = sub.add_parser(
        "optimize", help="price every execution strategy for a query with "
                         "the cost-based optimizer (docs/OPTIMIZER.md) and "
                         "report the chosen one with its rationale")
    p_opt.add_argument("--query", choices=[*_QUERIES, "chain"],
                       default="chain")
    p_opt.add_argument("--elements", type=int, default=6_000_000,
                       help="simulated input cardinality")
    p_opt.add_argument("--devices", type=int, default=1,
                       help="max simulated devices the optimizer may "
                            "shard over (power-of-two counts enumerated)")
    p_opt.add_argument("--explain", action="store_true",
                       help="print the full pricing table: every "
                            "enumerated strategy with its analytic "
                            "estimate and simulated makespan")
    p_opt.add_argument("--no-cache", action="store_true",
                       help="disable the compiled-plan cache (every "
                            "repeat re-prices from scratch)")
    p_opt.add_argument("--repeat", type=int, default=1,
                       help="ask for the same decision N times (repeats "
                            "after the first hit the plan cache)")
    p_opt.add_argument("--summary", metavar="PATH", default=None,
                       help="write decision + cache counters as JSON "
                            "(byte-identical across same-seed runs)")

    p_fuse = sub.add_parser("fuse", help="show the fusion pass's output")
    p_fuse.add_argument("--query", choices=[*_QUERIES, "chain"],
                        default="chain")
    p_fuse.add_argument("--render", action="store_true",
                        help="print CUDA-like source of fused kernels")

    p_tr = sub.add_parser("trace", help="export a Chrome trace")
    p_tr.add_argument("--strategy", default="fused_fission",
                      choices=[s.value for s in Strategy])
    p_tr.add_argument("--elements", type=int, default=500_000_000)
    p_tr.add_argument("--output", default="trace.json")

    p_srv = sub.add_parser(
        "serve", help="query-serving simulation with admission control, "
                      "batching, and SLO tracking (docs/SERVING.md)")
    p_srv.add_argument("--qps", type=float, default=200.0,
                       help="offered load (Poisson arrivals per second)")
    p_srv.add_argument("--duration", type=float, default=5.0,
                       help="offered-load window, simulated seconds")
    p_srv.add_argument("--seed", type=int, default=0,
                       help="arrival-trace seed")
    p_srv.add_argument("--mode", choices=["batched", "isolated", "both"],
                       default="batched",
                       help="batched shared-scan dispatch, isolated "
                            "per-query dispatch, or a comparison of both "
                            "over the same trace")
    p_srv.add_argument("--queue-depth", type=int, default=64,
                       help="admission queue capacity")
    p_srv.add_argument("--max-batch", type=int, default=8,
                       help="max queries per dispatched batch")
    p_srv.add_argument("--max-streams", type=int, default=4,
                       help="Stream-Pool worker streams per batch")
    p_srv.add_argument("--summary", metavar="PATH", default=None,
                       help="write the metrics summary as JSON "
                            "(byte-identical across same-seed runs)")
    p_srv.add_argument("--trace-output", metavar="PATH", default=None,
                       help="write a Chrome trace of the serve run")
    p_srv.add_argument("--analyze", action="store_true",
                       help="static pre-flight on every batch "
                            "(docs/ANALYSIS.md): plan lints + stream-program "
                            "race check; error findings abort dispatch")
    p_srv.add_argument("--shed-unsafe", action="store_true",
                       help="shed queries the static memory check proves "
                            "cannot fit the lane device (MEM701, "
                            "docs/ANALYSIS.md) instead of dispatching them")
    p_srv.add_argument("--devices", type=int, default=1,
                       help="device lanes sharing the host (batches are "
                            "routed to the lane with the least outstanding "
                            "bytes; see docs/CLUSTER.md)")

    p_cl = sub.add_parser(
        "cluster", help="run a TPC-H query sharded over N simulated "
                        "devices (docs/CLUSTER.md)")
    p_cl.add_argument("--devices", type=int, default=4,
                      help="simulated devices behind one shared host")
    p_cl.add_argument("--query", choices=["q1", "q21"], default="q1")
    p_cl.add_argument("--partition", choices=["hash", "range", "rr"],
                      default="hash", help="driver-table sharding scheme")
    p_cl.add_argument("--elements", type=int, default=6_000_000,
                      help="simulated lineitem cardinality")
    p_cl.add_argument("--seed", type=int, default=0,
                      help="partitioner seed")
    p_cl.add_argument("--kill-device", type=int, metavar="IDX", default=None,
                      help="deterministically lose device IDX before the "
                           "local phase (its shards re-execute on the "
                           "least-loaded survivor)")
    p_cl.add_argument("--no-preagg", action="store_true",
                      help="disable the pre-aggregation lowering: ship raw "
                           "frontier rows through the exchange")
    p_cl.add_argument("--flat-merge", action="store_true",
                      help="serial host gather instead of the pairwise "
                           "tree merge")
    p_cl.add_argument("--functional", action="store_true",
                      help="also run the sharded query on generated data "
                           "and check byte-identity against the "
                           "single-device interpreter")
    p_cl.add_argument("--scale-factor", type=float, default=0.01)
    p_cl.add_argument("--summary", metavar="PATH", default=None,
                      help="write the cluster summary as JSON "
                           "(byte-identical across same-seed runs)")
    p_cl.add_argument("--trace-output", metavar="PATH", default=None,
                      help="write a Chrome trace with one lane group per "
                           "device plus the cluster host")

    p_an = sub.add_parser(
        "analyze", help="static analysis over the built-in corpus "
                        "(docs/ANALYSIS.md): pattern plans, TPC-H plans, "
                        "fuzz plans, fused regions, stream programs, IR")
    p_an.add_argument("--strict", action="store_true",
                      help="exit 1 on any error-severity finding "
                           "(the CI lint gate)")
    p_an.add_argument("--fuzz-seeds", type=int, default=50,
                      help="how many seeded fuzz plans to include")
    p_an.add_argument("--baseline", metavar="PATH", default=None,
                      help="suppression file of known findings "
                           "(CODE LOCATION-GLOB per line)")
    p_an.add_argument("--write-baseline", metavar="PATH", default=None,
                      help="write current findings as a baseline and exit")
    p_an.add_argument("--prune-baseline", action="store_true",
                      help="with --baseline: report suppressions that "
                           "matched nothing; with --strict, rewrite the "
                           "baseline file without them")
    p_an.add_argument("--json", action="store_true",
                      help="machine-readable report on stdout "
                           "(schema repro.analyze.report/v1, findings "
                           "sorted by code then location)")

    p_c = sub.add_parser("compile", help="run the full compilation pipeline")
    p_c.add_argument("--query", choices=[*_QUERIES, "chain"], default="chain")
    p_c.add_argument("--elements", type=int, default=6_000_000)

    p_e = sub.add_parser("explain", help="print a plan tree with fusion overlay")
    p_e.add_argument("--query", choices=[*_QUERIES, "chain"], default="q1")
    p_e.add_argument("--elements", type=int, default=6_000_000)

    p_sql = sub.add_parser("sql", help="run a SQL query over generated TPC-H")
    p_sql.add_argument("statement", nargs="?", default=None,
                       help="e.g. \"SELECT returnflag, COUNT(*) "
                       "AS n FROM lineitem GROUP BY returnflag\" "
                       "(legacy single-table path, physical column names)")
    p_sql.add_argument("--query", default=None, metavar="qN",
                       help="a TPC-H catalog query (q1..q22), or 'all' for "
                       "the whole suite (frontend path, SQL column names)")
    p_sql.add_argument("--file", default=None, metavar="F.sql",
                       help="read the SQL text from a file (frontend path)")
    p_sql.add_argument("--explain", action="store_true",
                       help="print the bound query and the lowered plan "
                       "instead of executing")
    p_sql.add_argument("--validate", action="store_true",
                       help="differentially validate against the NumPy "
                       "reference interpreter; exit nonzero on mismatch")
    p_sql.add_argument("--json", action="store_true",
                       help="with --query all: print the JSON coverage "
                       "report (stable key order)")
    p_sql.add_argument("--seed", type=int, default=1992,
                       help="dataset seed for the frontend path")
    p_sql.add_argument("--scale-factor", type=float, default=0.01)
    p_sql.add_argument("--limit", type=int, default=20,
                       help="max rows to print")

    return parser


def _print_rows(out, limit: int) -> None:
    header = "  ".join(f"{f:>14}" for f in out.fields)
    print(header)
    for i in range(min(out.num_rows, limit)):
        print("  ".join(f"{out.column(f)[i]!s:>14}" for f in out.fields))
    if out.num_rows > limit:
        print(f"... ({out.num_rows} rows total)")


def _cmd_sql_frontend(args) -> int:
    import json

    from .frontend import bind_sql, compile_sql, run_plan, validate_sql
    from .plans.explain import explain
    from .sql.lexer import SqlError
    from .tpch.catalog import (
        CATALOG, QUERIES, tpch_dataset, tpch_source_rows, validate_tpch,
    )

    if args.query == "all":
        report = validate_tpch(scale_factor=args.scale_factor,
                               seed=args.seed)
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            for r in report.reports:
                line = f"{r.query:5s} {r.status:12s}"
                if r.rows >= 0:
                    line += f" rows={r.rows}"
                if r.detail:
                    line += f"  {r.detail}"
                print(line)
            print(f"covered {len(report.covered)}/{len(report.reports)}")
        if args.validate and (report.failed or len(report.covered) < 16):
            return 1
        return 0

    if args.query is not None:
        if args.query not in QUERIES:
            print(f"unknown query {args.query!r}; have q1..q22 or 'all'")
            return 2
        name, sql = args.query, QUERIES[args.query]
    else:
        name = args.file
        with open(args.file) as fh:
            sql = fh.read()

    source_rows = tpch_source_rows(args.scale_factor)
    try:
        bound = bind_sql(sql, CATALOG)
        compiled = compile_sql(sql, CATALOG, source_rows=source_rows,
                               name=name)
    except SqlError as exc:
        print(f"error: {exc}")
        return 1

    if args.explain:
        print(bound.describe())
        print()
        print(explain(compiled.plan, source_rows=source_rows))
        return 0

    tables = tpch_dataset(scale_factor=args.scale_factor, seed=args.seed)
    if args.validate:
        report = validate_sql(name, sql, CATALOG, tables,
                              source_rows=source_rows)
        line = f"{report.query}: {report.status}"
        if report.rows >= 0:
            line += f" rows={report.rows}"
        if report.detail:
            line += f"  {report.detail}"
        print(line)
        return 0 if report.status == "ok" else 1

    _print_rows(run_plan(compiled, tables), args.limit)
    return 0


def _cmd_sql(args) -> int:
    from .core.passes import compile_plan
    from .plans import evaluate_sinks
    from .sql import sql_to_plan

    picked = sum(x is not None
                 for x in (args.statement, args.query, args.file))
    if picked != 1:
        print("provide exactly one of: a SQL statement, --query, or --file")
        return 2
    if args.query is not None or args.file is not None:
        return _cmd_sql_frontend(args)

    plan = sql_to_plan(args.statement)
    data = generate(TpchConfig(scale_factor=args.scale_factor))
    tables = {"lineitem": data.lineitem, "orders": data.orders,
              "supplier": data.supplier, "nation": data.nation}
    sources = {s.name: tables[s.name] for s in plan.sources()
               if s.name in tables}
    missing = [s.name for s in plan.sources() if s.name not in tables]
    if missing:
        print(f"unknown table(s): {missing}; available: {sorted(tables)}")
        return 1

    out = list(evaluate_sinks(plan, sources).values())[0]
    _print_rows(out, args.limit)

    rows = {s.name: tables[s.name].num_rows for s in plan.sources()}
    cp = compile_plan(plan, rows)
    print()
    print(cp.describe())
    return 0


def _cmd_compile(args) -> int:
    from .core.passes import compile_plan
    if args.query in _QUERIES:
        build, rows_fn = _QUERIES[args.query]
        plan, rows = build(), rows_fn(args.elements)
    else:
        plan, rows = select_chain_plan(3), {"input": args.elements}
    cp = compile_plan(plan, rows)
    print(cp.describe())
    result = cp.run()
    print(f"\nsimulated: {result.makespan*1e3:.1f} ms "
          f"({result.throughput/1e9:.2f} GB/s of input)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "select":
        return _cmd_select(args)
    if args.command in _QUERIES:
        return _cmd_query(args)
    if args.command == "fuse":
        return _cmd_fuse(args)
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "sql":
        return _cmd_sql(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "explain":
        from .plans.explain import explain
        if args.query in _QUERIES:
            build, rows_fn = _QUERIES[args.query]
            plan, rows = build(), rows_fn(args.elements)
        else:
            plan, rows = select_chain_plan(3), {"input": args.elements}
        print(explain(plan, source_rows=rows))
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
