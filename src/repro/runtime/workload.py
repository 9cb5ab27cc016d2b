"""Cross-query workloads: fusing operators *across* queries (SS III-A).

"In data warehousing applications, there are opportunities to apply kernel
fusion across queries since RA operators from different queries can be
fused."

A :class:`QueryWorkload` holds several plans that read the same base
tables.  Merging them into one combined plan makes the shared sources
explicit; shared-scan groups (Fig 2(c)) then appear wherever different
queries filter the same table, and the scan cost is paid once.  The
scheduler compares three regimes:

* **isolated** -- each query executed on its own (input re-uploaded and
  re-scanned per query);
* **shared-source** -- one upload, per-query kernels;
* **cross-query fused** -- one upload, shared-scan kernels for the
  SELECT groups + per-query remainders;
* **batched streams** -- the serving-path variant of cross-query fusion:
  one upload + shared-scan kernels on a lead stream, then each query's
  remaining kernels issued to its own Stream-Pool stream so independent
  remainders overlap on the SM pool (used by :mod:`repro.serve`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.multifusion import (
    SharedScanGroup,
    chain_for_shared_scan,
    find_shared_select_groups,
    split_group_by_registers,
)
from ..core.opmodels import chain_for_region, out_row_nbytes
from ..errors import PlanError
from ..faults import as_injector
from ..plans.plan import OpType, Plan, PlanNode
from ..simgpu.compute import KernelLaunchSpec
from ..simgpu.device import DeviceSpec
from ..simgpu.engine import SimEngine, SimStream
from ..simgpu.pcie import HostMemory
from ..simgpu.timeline import Timeline
from .sizes import estimate_sizes

#: one queued kernel launch: ``stream.kernel(spec, tag=, reads=, writes=)``
Launch = tuple[KernelLaunchSpec, str, tuple[str, ...], tuple[str, ...]]
#: one queued input upload: ``stream.h2d(nbytes, memory, tag=, writes=)``
Upload = tuple[float, str, tuple[str, ...]]


def _replay(stream, launches: tuple[Launch, ...]) -> None:
    for spec, tag, reads, writes in launches:
        stream.kernel(spec, tag=tag, reads=reads, writes=writes)


@dataclass
class QueryWorkload:
    """Several single-chain queries over shared source tables."""

    plans: list[Plan]

    def __post_init__(self):
        if not self.plans:
            raise PlanError("workload needs at least one query")
        for p in self.plans:
            p.validate()

    def merged_plan(self) -> Plan:
        """One plan containing every query, with same-named sources merged."""
        merged = Plan(name="workload")
        sources: dict[str, PlanNode] = {}
        for qi, plan in enumerate(self.plans):
            mapping: dict[int, PlanNode] = {}
            for node in plan.topological():
                if node.op is OpType.SOURCE:
                    if node.name not in sources:
                        clone = PlanNode(
                            op=node.op, name=node.name, inputs=[],
                            params=dict(node.params),
                            selectivity=node.selectivity,
                            out_row_nbytes=node.out_row_nbytes)
                        merged.nodes.append(clone)
                        sources[node.name] = clone
                    mapping[id(node)] = sources[node.name]
                    continue
                clone = PlanNode(
                    op=node.op, name=f"q{qi}.{node.name}",
                    inputs=[mapping[id(i)] for i in node.inputs],
                    params=dict(node.params),
                    selectivity=node.selectivity,
                    out_row_nbytes=node.out_row_nbytes)
                merged.nodes.append(clone)
                mapping[id(node)] = clone
        merged.validate()
        return merged


@dataclass
class WorkloadRunResult:
    mode: str
    timeline: Timeline
    input_bytes: float

    @property
    def makespan(self) -> float:
        return self.timeline.makespan

    @property
    def throughput(self) -> float:
        return self.input_bytes / self.makespan if self.makespan else 0.0


class WorkloadScheduler:
    """Times a workload under the three sharing regimes.

    ``check=True`` sanitizes every timeline the scheduler produces;
    ``faults`` (a :class:`~repro.faults.FaultPlan` or injector) makes every
    engine it drives consult the injector, so serving-path batches degrade
    or raise typed :class:`~repro.errors.FaultError` like the Executor does.
    A :class:`FaultPlan` yields a fresh injector per regime run, keeping
    each run independently deterministic.
    """

    def __init__(self, device: DeviceSpec | None = None,
                 memory: HostMemory = HostMemory.PINNED,
                 check: bool = False, faults=None,
                 analyze: bool = False):
        self.device = device or DeviceSpec()
        self.memory = memory
        self.check = check
        self.faults = faults
        #: static pre-flight: race-check each batched stream program before
        #: it runs; error findings raise :class:`~repro.errors.AnalysisError`
        self.analyze = analyze
        #: batch shape -> (uploaded bytes, lead uploads, shared-scan
        #: launches, per-query templates); see enqueue_batched_streams
        self._batches: dict[tuple, tuple] = {}

    def _engine(self) -> SimEngine:
        return SimEngine(self.device, check=self.check,
                         faults=as_injector(self.faults))

    # -- emission ----------------------------------------------------------
    # Every regime lowers a query the same way: build its launches once as
    # a template of ``(spec, tag, reads, writes)`` commands, then replay the
    # template onto a stream.  A frozen plan keeps its templates (see
    # :meth:`Plan.memo`); an unfrozen one is rebuilt on every call.
    def _emit_query_kernels(self, stream, plan: Plan, graph: Plan,
                            sizes: dict[str, int], position: int | None = None,
                            skip: frozenset[str] = frozenset()
                            ) -> tuple[Launch, ...]:
        """Queue every non-fused kernel of query `plan` onto `stream` (a
        :class:`SimStream` or pooled stream); returns the launches queued.

        `graph` holds the nodes to lower: `plan` itself (``position`` None)
        or the merged workload plan, in which the query's nodes are named
        ``q{position}.*``.  The template is keyed by the lane device, the
        batch position, the size and row width of every source the query
        reads and the nodes `skip` covers (shared-scan outputs): everything
        the launches depend on besides the plan itself."""
        prefix = "" if position is None else f"q{position}."
        if prefix:
            skip = frozenset(n for n in skip if n.startswith(prefix))
        names = {s.name for s in plan.sources()}
        inputs = tuple((s.name, sizes[s.name], s.out_row_nbytes)
                       for s in graph.sources() if s.name in names)
        key = ("emission", self.device, position, inputs, skip)
        template = plan.memo(
            key, lambda: self._query_launches(graph, sizes, prefix, skip))
        _replay(stream, template)
        return template

    def _query_launches(self, graph: Plan, sizes: dict[str, int],
                        prefix: str, skip: frozenset[str]
                        ) -> tuple[Launch, ...]:
        """The launches of every non-source node of `graph` named with
        `prefix` and not in `skip`, in dependency order."""
        from ..core.opmodels import FUSABLE_OPS, chain_for_node
        out: list[Launch] = []
        for node in graph.topological():
            if node.op is OpType.SOURCE or node.name in skip:
                continue
            if not node.name.startswith(prefix):
                continue
            primary = node.inputs[0]
            n_in = sizes[primary.name]
            if node.op in FUSABLE_OPS:
                chain = chain_for_region([node])
            else:
                chain = chain_for_node(node, n_in_hint=max(n_in, 2))
            side_sizes = {getattr(x, "name", str(x)): sizes[x.name]
                          for _, x in chain.side_kernels}
            reads = tuple(i.name for i in node.inputs)
            if chain.side_kernels:
                reads += (f"{node.name}.build",)
            side_reads = tuple(i.name for i in node.inputs[1:])
            build = (f"{node.name}.build",)
            for spec in chain.side_launch_specs(self.device, side_sizes):
                out.append((spec, spec.name, side_reads, build))
            for spec in chain.main_launch_specs(max(n_in, 1), self.device):
                out.append((spec, spec.name, reads, (node.name,)))
        return tuple(out)

    def _uploads(self, plan: Plan, sizes: dict[str, int]
                 ) -> tuple[float, tuple[Upload, ...]]:
        """(total input bytes, one H2D per non-empty source of `plan`)."""
        total = 0.0
        out: list[Upload] = []
        for src in plan.sources():
            nbytes = float(sizes[src.name]) * out_row_nbytes(src)
            total += nbytes
            if nbytes > 0:
                out.append((nbytes, f"input.{src.name}", (src.name,)))
        return total, tuple(out)

    def _upload(self, stream, plan: Plan, sizes: dict[str, int]) -> float:
        total, uploads = self._uploads(plan, sizes)
        self._replay_uploads(stream, uploads)
        return total

    def _replay_uploads(self, stream, uploads: tuple[Upload, ...]) -> None:
        for nbytes, tag, writes in uploads:
            stream.h2d(nbytes, self.memory, tag=tag, writes=writes)

    def _shared_scan_launches(self, merged: Plan, sizes: dict[str, int]
                              ) -> tuple[tuple[Launch, ...], frozenset[str]]:
        """The shared-scan launches for every multi-query SELECT group,
        and the names of the SELECT nodes they cover."""
        out: list[Launch] = []
        fused_names: set[str] = set()
        for raw_group in find_shared_select_groups(merged):
            for group in split_group_by_registers(raw_group):
                if len(group.selects) < 2:
                    continue  # singleton remainder: leave to the per-query path
                chain = chain_for_shared_scan(group)
                n_in = sizes[group.producer.name]
                select_names = tuple(s.name for s in group.selects)
                reads = (group.producer.name,)
                for spec in chain.main_launch_specs(max(n_in, 1), self.device):
                    out.append((spec, spec.name, reads, select_names))
                fused_names.update(select_names)
        return tuple(out), frozenset(fused_names)

    def _emit_remainders(self, streams, workload: QueryWorkload, merged: Plan,
                         sizes: dict[str, int], skip: frozenset[str] = frozenset()
                         ) -> tuple[tuple[Launch, ...], ...]:
        """Each query's kernels, query ``qi`` onto ``streams[qi % len]``;
        returns the per-query templates."""
        return tuple(
            self._emit_query_kernels(streams[qi % len(streams)], plan, merged,
                                     sizes, position=qi, skip=skip)
            for qi, plan in enumerate(workload.plans))

    # -- regimes -------------------------------------------------------------
    def run_isolated(self, workload: QueryWorkload,
                     source_rows: dict[str, int]) -> WorkloadRunResult:
        """Each query uploads and scans its own copy of the inputs."""
        stream = SimStream(stream_id=0)
        total = 0.0
        for plan in workload.plans:
            sizes = estimate_sizes(plan, source_rows)
            total += self._upload(stream, plan, sizes)
            self._emit_query_kernels(stream, plan, plan, sizes)
        tl = self._engine().run([stream])
        return WorkloadRunResult("isolated", tl, total)

    def run_shared_source(self, workload: QueryWorkload,
                          source_rows: dict[str, int]) -> WorkloadRunResult:
        """One upload of the shared tables; per-query kernels unchanged."""
        merged = workload.merged_plan()
        sizes = estimate_sizes(merged, source_rows)
        stream = SimStream(stream_id=0)
        total = self._upload(stream, merged, sizes)
        self._emit_remainders([stream], workload, merged, sizes)
        tl = self._engine().run([stream])
        return WorkloadRunResult("shared_source", tl, total)

    def run_cross_query_fused(self, workload: QueryWorkload,
                              source_rows: dict[str, int]) -> WorkloadRunResult:
        """Shared upload + shared-scan kernels for SELECT groups."""
        merged = workload.merged_plan()
        sizes = estimate_sizes(merged, source_rows)
        stream = SimStream(stream_id=0)
        total = self._upload(stream, merged, sizes)
        scans, fused_names = self._shared_scan_launches(merged, sizes)
        _replay(stream, scans)
        self._emit_remainders([stream], workload, merged, sizes,
                              skip=fused_names)
        tl = self._engine().run([stream])
        return WorkloadRunResult("cross_query_fused", tl, total)

    def run_batched_streams(self, workload: QueryWorkload,
                            source_rows: dict[str, int],
                            pool=None, max_streams: int = 4
                            ) -> WorkloadRunResult:
        """The serving path's batch dispatch (see :mod:`repro.serve`).

        One lead stream uploads the shared tables and runs the shared-scan
        kernels; each query's remaining kernels then run on a Stream-Pool
        stream of their own, gated on the lead stream via ``selectWait``,
        so independent per-query remainders overlap on the SM pool.

        An injected fault past the retry budget escapes as a typed
        :class:`~repro.errors.FaultError`; the caller (the serve-layer
        dispatcher) recovers by :meth:`~repro.streampool.StreamPool.reset`
        and a degraded re-dispatch.
        """
        pool, total = self.enqueue_batched_streams(
            workload, source_rows, pool=pool, max_streams=max_streams)
        if self.analyze:
            # static pre-flight: race-check the stream program before it
            # runs (lazy import keeps runtime -> analyze one-directional)
            from ..analyze import Analyzer
            Analyzer(self.device).run(
                pool, unit="batched_streams", strict=True)
        tl = pool.wait_all()
        return WorkloadRunResult("batched_streams", tl, total)

    def enqueue_batched_streams(self, workload: QueryWorkload,
                                source_rows: dict[str, int],
                                pool=None, max_streams: int = 4):
        """Build (but do not run) the batched-streams program.

        Returns ``(pool, uploaded_bytes)`` with every command enqueued:
        what :meth:`run_batched_streams` hands to the engine, and what the
        static analyzer's stream race detector inspects.

        When every plan of the batch is frozen, the lead stream's uploads
        and shared-scan launches are memoised per batch shape (plans, row
        counts, worker streams), together with references to the queries'
        templates: a repeat shape replays them without merging the plans,
        estimating sizes or grouping shared scans.
        """
        from ..streampool import StreamPool

        n_workers = max(1, min(max_streams, len(workload.plans)))
        if pool is None:
            pool = StreamPool(self.device, num_streams=1 + n_workers,
                              engine=self._engine())
        else:
            # serving reuses one pool across batches; refresh the engine so
            # each batch gets its own deterministic injector state
            pool.engine = self._engine()

        shape = None
        if all(p.frozen for p in workload.plans):
            shape = (tuple(workload.plans), tuple(sorted(source_rows.items())),
                     n_workers, self.device, self.memory)
        program = self._batches.get(shape) if shape is not None else None

        lead = pool.get_available_stream()
        if program is None:
            merged = workload.merged_plan()
            sizes = estimate_sizes(merged, source_rows)
            total, uploads = self._uploads(merged, sizes)
            scans, fused_names = self._shared_scan_launches(merged, sizes)
        else:
            total, uploads, scans, templates = program
        self._replay_uploads(lead, uploads)
        _replay(lead, scans)

        workers = [pool.get_available_stream() for _ in range(n_workers)]
        for w in workers:
            if w is not lead:
                pool.select_wait(w, lead)
        if program is None:
            templates = self._emit_remainders(workers, workload, merged,
                                              sizes, skip=fused_names)
            if shape is not None:
                self._batches[shape] = (total, uploads, scans, templates)
        else:
            for qi, template in enumerate(templates):
                _replay(workers[qi % n_workers], template)
        return pool, total

    def compare(self, workload: QueryWorkload, source_rows: dict[str, int]
                ) -> dict[str, WorkloadRunResult]:
        return {
            "isolated": self.run_isolated(workload, source_rows),
            "shared_source": self.run_shared_source(workload, source_rows),
            "cross_query_fused": self.run_cross_query_fused(workload, source_rows),
        }
