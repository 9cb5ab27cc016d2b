"""The three benchmark workloads.

Each workload derives all of its inputs from the seed, and its amount of
work from ``--seconds`` through a fixed rate measured on a 2-core x86 box
at the commit that introduced the benchmark.  Fixed work (rather than
"as many ops as fit") makes a traced run do exactly what the untraced run
of the same seed did, so every simulated metric and count can be compared
for equality, and two commits are compared on identical work.

A workload runs in phases: ``setup`` (repeated; the last repetition's
state is used), ``run`` (the timed ops), ``check`` (outside the timed
region).  ``latencies`` holds one wall time per op in seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import random
import statistics
import time

#: work per second of --seconds (sizing constants, see above): TPC-H
#: passes, simulated seconds of arrivals, plan-cluster requests
TPCH_PASSES_PER_S = 0.9
SERVE_SIM_S_PER_S = 14.0
CLUSTER_OPS_PER_S = 18.0


def nearest_rank(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the definition ``ServeMetrics`` uses)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def apportion(items: list, weights: list[float], n: int) -> list:
    """``n`` requests split over ``items`` in proportion to ``weights``
    (largest remainder), so the mix of a short stream is exact."""
    total = sum(weights)
    quotas = [w * n / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)),
                          key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return [item for item, c in zip(items, counts) for _ in range(c)]


def draw(rng: random.Random, items: list, weights: list[float],
         n: int) -> list:
    """``n`` requests apportioned over ``items`` by weight, in a random
    order."""
    return rng.sample(apportion(items, weights, n), n)


class Workload:
    name = ""
    #: the program modules the workload imports (timed as set-up)
    MODULES: tuple[str, ...] = ()

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.latencies: list[float] = []
        #: wall seconds of the timed region
        self.wall_s = 0.0

    def _imported(self) -> list:
        return [importlib.import_module(m) for m in self.MODULES]

    def _op_id(self, op: int | None) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    @contextlib.contextmanager
    def untraced(self):
        """Record no spans inside (for bookkeeping between ops)."""
        if self.tracer is None:
            yield
            return
        recording, self.tracer.recording = self.tracer.recording, False
        try:
            yield
        finally:
            self.tracer.recording = recording

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ops_per_s(self) -> float:
        return self.attempted / self.wall_s


# ---------------------------------------------------------------------------
class TpchSql(Workload):
    """Closed loop, one client: the 22 TPC-H queries from SQL text to
    result, pass after pass, in a seeded order per pass."""

    name = "tpch-sql"
    MODULES = ("repro.frontend", "repro.core.fusion",
               "repro.frontend.validate", "repro.frontend.common",
               "repro.tpch.catalog", "repro.runtime")
    #: scale factor of the generated data the functional step runs over
    SCALE = 0.01

    def __init__(self, seed, seconds, tracer=None):
        super().__init__(seed, tracer)
        (self.fe, self.fusion, self.validate, self.common, self.catalog,
         self.runtime) = self._imported()
        self.config = self.runtime.ExecutionConfig(
            strategy=self.runtime.Strategy.FUSED_FISSION)
        rng = random.Random(seed)
        names = list(self.catalog.QUERIES)
        passes = max(1, round(seconds * TPCH_PASSES_PER_S))
        self.order = [q for _ in range(passes)
                      for q in rng.sample(names, len(names))]

    def setup(self) -> None:
        self.tables = self.executor = None     # free the last set-up's data
        self.tables = self.catalog.tpch_dataset(scale_factor=self.SCALE,
                                                seed=self.seed)
        self.sf1_rows = self.catalog.tpch_source_rows(1.0)
        self.executor = self.runtime.Executor()

    def _op(self, name: str) -> tuple:
        fe, cat = self.fe, self.catalog.CATALOG
        bound = fe.bind_sql(self.catalog.QUERIES[name], cat)
        compiled = fe.lower(bound, cat, source_rows=self.sf1_rows, name=name)
        regions = self.fusion.fuse_plan(compiled.plan).num_fused_regions
        run = self.executor.run(compiled.plan, self.sf1_rows, self.config)
        out = fe.run_plan(compiled, self.tables)
        return bound, run.makespan, regions, out

    def _keep(self, i: int, name: str, bound, out) -> None:
        """Keep the first result of each query in full; every later one is
        compared with it byte for byte here and then dropped, so results do
        not pile up in memory.  ``check`` compares the kept ones with the
        reference interpreter, which settles every op by transitivity."""
        self.ops_by_name.setdefault(name, []).append(i)
        if bound.order_by:
            by, desc = self.common.order_spec(bound)
            diff = self.validate.ordering_violation(out, by, desc)
            if diff is not None:
                self.mismatches[i] = f"op {i} ({name}): {diff}"
        if name not in self.first:
            self.first[name] = (bound, out)
            return
        diff = self.validate.compare_relations(out, self.first[name][1])
        if diff is not None:
            self.mismatches.setdefault(
                i, f"op {i} ({name}) differs from op "
                   f"{self.ops_by_name[name][0]}: {diff}")

    def run(self) -> None:
        self.first: dict[str, tuple] = {}
        self.ops_by_name: dict[str, list[int]] = {}
        self.mismatches: dict[int, str] = {}
        #: (simulated makespan, fused regions, rows out) per op
        self.ops: list[tuple] = []
        kept_s = 0.0
        start = time.perf_counter()
        for i, name in enumerate(self.order):
            self._op_id(i)
            t0 = time.perf_counter()
            bound, makespan, regions, out = self._op(name)
            t1 = time.perf_counter()
            self.latencies.append(t1 - t0)
            self._op_id(None)
            self.ops.append((makespan, regions, out.num_rows))
            with self.untraced():
                self._keep(i, name, bound, out)
            kept_s += time.perf_counter() - t1
        self.wall_s = time.perf_counter() - start - kept_s

    def check(self) -> list[str]:
        """Every result byte-identical to the reference interpreter under
        ``compare_relations``; ORDER BY results actually ordered."""
        failures = dict(self.mismatches)
        for name, (bound, got) in self.first.items():
            want = self.fe.reference_execute(bound, self.tables)
            diff = self.validate.compare_relations(got, want)
            if diff is not None:
                for i in self.ops_by_name[name]:
                    failures.setdefault(
                        i, f"op {i} ({name}): reference says {diff}")
        return [failures[i] for i in sorted(failures)]

    def sim(self) -> dict[str, float]:
        spans = [op[0] for op in self.ops]
        return {"sim_makespan_ms": sum(spans) * 1e3,
                "sim_goodput_qps": len(spans) / sum(spans),
                "sim_p99_ms": nearest_rank(spans, 99) * 1e3}

    def counts(self) -> dict[str, int]:
        return {"ops": len(self.ops),
                "rows_out": sum(op[2] for op in self.ops),
                "fused_regions": sum(op[1] for op in self.ops)}


# ---------------------------------------------------------------------------
class ServeMix(Workload):
    """Open loop in simulated time: a seeded arrival trace of the default
    tenants served in batched mode on 4 device lanes, no plan cache."""

    name = "serve-mix"
    MODULES = ("repro.serve", "repro.serve.arrivals")
    #: offered load near the knee: a few percent shed, p99 ~1.4 s
    QPS = 80.0
    DEVICES = 4

    def __init__(self, seed, seconds, tracer=None):
        super().__init__(seed, tracer)
        self.serve, self.arrivals = self._imported()
        self.duration_s = seconds * SERVE_SIM_S_PER_S
        self.kinds = sorted({kind for tenant in self.arrivals.DEFAULT_TENANTS
                             for kind, _ in tenant.mix})
        self.server = None

    def setup(self) -> None:
        serve, arrivals = self.serve, self.arrivals
        self.trace = serve.ArrivalProcess(
            qps=self.QPS, duration_s=self.duration_s, seed=self.seed).trace()
        arrivals.catalog_plan.cache_clear()
        for kind in self.kinds:
            arrivals.catalog_plan(kind)
        if self.server is not None:
            self.server.close()
            self.server = None
        self.server = serve.QueryServer(config=serve.ServeConfig(
            mode="batched", devices=self.DEVICES))
        self.server.engine.warm()

    def run(self) -> None:
        engine = self.server.engine     # the in-process dispatch backend
        dispatch_round = engine.execute_round
        rounds: list[tuple[float, int]] = []

        def timed_round(assignments, epoch):
            self._op_id(len(rounds))
            t0 = time.perf_counter()
            out = dispatch_round(assignments, epoch)
            rounds.append((time.perf_counter() - t0,
                           sum(len(a.batch) for a in assignments)))
            self._op_id(None)
            return out

        engine.execute_round = timed_round
        start = time.perf_counter()
        self.result = self.server.run(trace=list(self.trace))
        self.wall_s = time.perf_counter() - start
        del engine.execute_round
        self.server.close()
        # an op is an offered query; a served query's wall latency is the
        # dispatch round that produced its result
        self.latencies = [wall for wall, n in rounds for _ in range(n)]

    @property
    def attempted(self) -> int:
        return len(self.trace)

    def ops_per_s(self) -> float:
        """Completed queries per wall second: a shed query costs no wall
        time, so counting offered ones would reward shedding."""
        return self.result.metrics.completed / self.wall_s

    def check(self) -> list[str]:
        m = self.result.metrics
        try:
            m.check_finite()
        except ValueError as exc:
            return [str(exc)] * self.attempted
        lost = m.offered - m.completed - m.shed
        failures = [f"{lost} offered queries neither completed nor shed"
                    ] * max(0, lost)
        if m.offered != len(self.trace):
            failures.append(f"offered {m.offered} of {len(self.trace)}")
        return failures

    def sim(self) -> dict[str, float]:
        m = self.result.metrics
        return {"sim_makespan_ms": m.busy_s * 1e3,
                "sim_goodput_qps": m.goodput_qps,
                "sim_p99_ms": m.latency.percentile(99) * 1e3,
                "sim_slo_miss_ratio": (m.shed + m.missed_deadline)
                / m.offered}

    def counts(self) -> dict[str, int]:
        m = self.result.metrics
        return {"offered": m.offered, "completed": m.completed,
                "shed": m.shed, "missed_deadline": m.missed_deadline,
                "batches": m.batches}


# ---------------------------------------------------------------------------
class PlanCluster(Workload):
    """Closed loop, one client: ``Optimizer.run`` over a Zipf-skewed stream
    of (plan, scale, max_devices) requests sharing one ``PlanCache``."""

    name = "plan-cluster"
    MODULES = ("repro.serve.arrivals", "repro.optimizer")
    SCALES = (1_000_000, 4_000_000, 16_000_000)
    DEVICE_COUNTS = (1, 2, 4, 8)
    #: skew of the request stream.  ``calibrate.py`` matches the 150-request
    #: prototype this workload was designed from (0.41 of all cache lookups
    #: hit, 932 evictions) at 1.05 (means 0.422 and 927 over seeds 1-3),
    #: but there 0.43-0.47 of the timed requests hit a cached decision
    #: (seeds 1-4), so the median op falls between hit latencies (under
    #: 50 ms) and miss latencies.  A tiered stream matched to the prototype
    #: the same way, where 0.40-0.56 of the timed requests hit, spread
    #: op_p50_ms by 0.34 over seeds 1-10 (baseline-skew2.5.json), beyond
    #: its bound.  At 1.3 (0.478 and 500) 0.68-0.73 of the timed requests
    #: hit (seeds 1-10), so the median op is a hit and the p90 a miss.
    ZIPF_S = 1.3
    #: requests served during set-up to fill the cache
    PREFIX = 40

    def __init__(self, seed, seconds, tracer=None):
        super().__init__(seed, tracer)
        self.arrivals, self.optimizer = self._imported()
        self.kinds = ("q1", "q21") + self.arrivals.FRONTEND_KINDS
        rng = random.Random(seed)
        triples, weights = self.ranked(self.kinds, self.ZIPF_S)
        n_ops = max(1, round(seconds * CLUSTER_OPS_PER_S))
        self.prefix = draw(rng, triples, weights, self.PREFIX)
        self.requests = draw(rng, triples, weights, n_ops)
        self.results: list[tuple] = []

    @classmethod
    def ranked(cls, kinds, zipf_s: float) -> tuple[list[tuple], list[float]]:
        """Every (plan, scale, max_devices) triple in popularity order, with
        its Zipf weight.  The order is the same for every seed: which
        cached decisions survive is so sensitive to what is hot that, with
        seed-drawn popularity, ops_per_s, op_p50_ms and op_p90_ms spread by
        0.27-0.31 over seeds 1-10 (baseline-seeded-tiers.json), beyond
        their 0.25 bounds, and the simulated metrics, exact sums over the
        stream, moved with the seed as well."""
        triples = list(itertools.product(kinds, cls.SCALES,
                                         cls.DEVICE_COUNTS))
        random.Random(0).shuffle(triples)
        weights = [1.0 / (rank + 1) ** zipf_s
                   for rank in range(len(triples))]
        return triples, weights

    def setup(self) -> None:
        self.cache = self.opt = None       # free the last set-up's cache
        self.arrivals.catalog_plan.cache_clear()
        for kind in self.kinds:
            self.arrivals.catalog_plan(kind)
        self.cache = self.optimizer.PlanCache()
        self.opt = self.optimizer.Optimizer(cache=self.cache)
        for request in self.prefix:
            self._op(request)

    def _op(self, request: tuple) -> tuple:
        kind, scale, devices = request
        result, decision = self.opt.run(
            self.arrivals.catalog_plan(kind),
            self.arrivals.catalog_rows(kind, scale), max_devices=devices)
        return (request, decision.chosen.label, decision.chosen.price_s,
                result.makespan, decision.cache_hit)

    def run(self) -> None:
        start = time.perf_counter()
        for i, request in enumerate(self.requests):
            self._op_id(i)
            t0 = time.perf_counter()
            self.results.append(self._op(request))
            self.latencies.append(time.perf_counter() - t0)
        self._op_id(None)
        self.wall_s = time.perf_counter() - start

    def check(self) -> list[str]:
        """Every decision, cached or not, equals the one a cache-less
        optimizer makes for the same request, in label and price."""
        fresh = self.optimizer.Optimizer()
        wants: dict[tuple, tuple] = {}
        failures = []
        for i, (request, label, price, _, _) in enumerate(self.results):
            if request not in wants:
                kind, scale, devices = request
                want = fresh.choose(self.arrivals.catalog_plan(kind),
                                    self.arrivals.catalog_rows(kind, scale),
                                    max_devices=devices)
                wants[request] = (want.chosen.label, want.chosen.price_s)
            if (label, price) != wants[request]:
                failures.append(f"op {i} {request}: chose {label} at "
                                f"{price!r}, cache-less chose "
                                f"{wants[request]}")
        return failures

    def sim(self) -> dict[str, float]:
        spans = [r[3] for r in self.results]
        return {"sim_makespan_ms": sum(spans) * 1e3,
                "sim_goodput_qps": len(spans) / sum(spans),
                "sim_p99_ms": nearest_rank(spans, 99) * 1e3}

    def counts(self) -> dict[str, int]:
        stats = self.cache.stats()
        return {"ops": len(self.results),
                "decision_hits": sum(r[4] for r in self.results),
                "cache_hits": stats["cache.hits"],
                "cache_misses": stats["cache.misses"],
                "cache_evictions": stats["cache.evictions"]}


WORKLOADS = {w.name: w for w in (TpchSql, ServeMix, PlanCluster)}


def latency_summary(latencies: list[float]) -> dict[str, float]:
    """Median and p90 wall latency in ms, with the sample counts."""
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 \
        else latencies[0]
    return {"op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "samples": len(latencies),
            "beyond_p90": sum(1 for v in latencies if v > p90)}
