"""The serving loop: a discrete-event simulation over simulated time.

One device serves one dispatch at a time (the batch itself may fan out
over streams internally).  The loop interleaves, in simulated-time order:

1. **ingest** -- arrivals up to "now" go through admission (bounded queue,
   backpressure shedding);
2. **expire** -- queued queries whose deadline already passed are shed
   rather than wasting device time;
3. **dispatch** -- the batch scheduler forms a memory-fitting same-table
   group; ``batched`` mode sends it down the cross-query shared-scan path
   on the Stream Pool, ``isolated`` mode runs the head query alone;
4. **complete** -- every query in the batch finishes at dispatch +
   makespan; latencies, SLO hits, and closed-loop follow-ups are recorded.

Fault-aware serving: with a chaos plan configured, batch ``k`` runs under
the plan reseeded with ``k``.  A fault that survives the engine's retry
budget poisons only its batch: the Stream Pool is reset and the batch
re-dispatched query-by-query through the Executor's PR-2 degradation
ladder (whose last rung, the host baseline, cannot fault), so the server
never dies -- the batch just runs degraded and the metrics say so.

Multi-device serving (``devices > 1``): the admission queue and batch
scheduler stay shared, but each formed batch is routed to the device lane
with the **least outstanding dispatched bytes** (ties to the lowest
device id).  Lanes run on :func:`~repro.cluster.host.contended_device`
specs -- same shared-host staging model as the cluster executor -- each
with its own WorkloadScheduler and Stream Pool, and completions are drained
from a time-ordered in-flight heap, so lanes genuinely overlap in
simulated time.  Per-lane counters land in ``ServeMetrics.per_device``
(``device.<i>.*`` summary keys).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..faults import FaultPlan
from ..simgpu.device import DeviceSpec
from ..simgpu.timeline import Timeline
from .admission import AdmissionController, AdmissionDecision
from .arrivals import ArrivalProcess, QueryRequest
from .dispatch import DispatchEngine, DispatchRequest
from .metrics import DeviceLaneStats, ServeMetrics
from .queue import BoundedPriorityQueue
from .scheduler import BatchScheduler


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serve run (all deterministic)."""

    #: "batched" (shared-scan groups on the Stream Pool) or "isolated"
    #: (one query per dispatch, own upload)
    mode: str = "batched"
    queue_capacity: int = 64
    max_batch: int = 8
    #: Stream-Pool worker streams per batch dispatch
    max_streams: int = 4
    #: fraction of device memory the batch working set may claim
    memory_safety: float = 0.8
    #: margin on predicted wait before backpressure shedding (see
    #: :class:`~repro.serve.admission.AdmissionController`)
    backpressure_slack: float = 1.0
    #: strict mode: sanitize every batch timeline (docs/VALIDATION.md)
    check: bool = False
    #: static pre-flight (docs/ANALYSIS.md): lint every batch's plans and
    #: race-check the batched stream program before dispatch; error
    #: findings raise :class:`~repro.errors.AnalysisError` (aborting the
    #: dispatch), warnings are counted in the metrics
    analyze: bool = False
    #: shed queries the abstract interpreter proves cannot fit the lane
    #: device (MEM701 certain-OOM under serial residency at this config's
    #: ``memory_safety``) instead of dispatching them; counted in
    #: ``ServeMetrics.shed_unsafe``.  Default off
    shed_unsafe: bool = False
    #: chaos plan; batch ``k`` runs under ``faults.reseeded(k)``
    faults: FaultPlan | None = None
    #: device lanes sharing one host (1 = the classic serial server)
    devices: int = 1
    #: content-addressed dispatch cache
    #: (:class:`repro.optimizer.plancache.PlanCache`): a repeat batch --
    #: same plans, same stats, same platform -- skips planning, analysis,
    #: and simulation entirely and replays the priced result
    plan_cache: object | None = None

    def __post_init__(self):
        if self.mode not in ("batched", "isolated"):
            raise ValueError(f"unknown serve mode {self.mode!r}")
        if self.devices < 1:
            raise ValueError(f"devices must be >= 1, got {self.devices}")


@dataclass
class RequestRecord:
    """Final disposition of one offered query."""

    request: QueryRequest
    #: completed | missed_deadline | shed_queue_full | shed_backpressure |
    #: shed_expired | shed_unsafe
    status: str
    completion_s: float | None = None

    @property
    def latency_s(self) -> float | None:
        if self.completion_s is None:
            return None
        return self.completion_s - self.request.arrival_s


@dataclass
class ServeResult:
    config: ServeConfig
    metrics: ServeMetrics
    records: list[RequestRecord]
    #: (dispatch time, batch timeline) per dispatch, for tracing
    segments: list[tuple[float, Timeline]] = field(default_factory=list)
    #: device lane of each segment (parallel to ``segments``; all zeros
    #: for single-device runs)
    segment_devices: list[int] = field(default_factory=list)

    def merged_timeline(self) -> Timeline:
        """All batch timelines on one clock (for the trace exporter)."""
        merged = Timeline()
        for t0, tl in self.segments:
            merged.extend(tl, offset=t0)
        return merged

    def device_timelines(self) -> dict[int, Timeline]:
        """Per-lane merged timelines on the shared clock (one trace lane
        group per device, like the cluster executor's)."""
        devs = self.segment_devices or [0] * len(self.segments)
        out: dict[int, Timeline] = {
            d: Timeline() for d in range(self.config.devices)}
        for dev, (t0, tl) in zip(devs, self.segments):
            out[dev].extend(tl, offset=t0)
        return out


class QueryServer:
    """Serves an arrival trace on the simulated device."""

    def __init__(self, device: DeviceSpec | None = None,
                 config: ServeConfig = ServeConfig()):
        self.device = device or DeviceSpec()
        self.config = config
        self.engine = DispatchEngine(self.device, config)

    @property
    def lane_device(self) -> DeviceSpec:
        return self.engine.lane_device

    def close(self) -> None:
        """Release serving resources.  The in-process engine holds none
        beyond ordinary memory, so this is a no-op kept for callers that
        close every server they build."""

    # ------------------------------------------------------------------
    def run(self, trace: list[QueryRequest] | None = None,
            arrivals: ArrivalProcess | None = None) -> ServeResult:
        """Serve `trace` (or `arrivals`' trace) to completion.

        Passing an explicit `trace` fixes the offered load exactly, so two
        runs differing only in scheduling policy are comparable
        query-for-query; `arrivals` additionally enables closed-loop
        feedback for tenants that model it.
        """
        if trace is None:
            if arrivals is None:
                raise ValueError("need a trace or an ArrivalProcess")
            trace = arrivals.trace()
        cfg = self.config
        if cfg.devices > 1:
            return self._run_multi(trace, arrivals)
        #: min-heap of not-yet-arrived requests (closed-loop feedback
        #: inserts into the future)
        pending: list[tuple[float, int, QueryRequest]] = [
            (r.arrival_s, r.req_id, r) for r in trace]
        heapq.heapify(pending)

        queue = BoundedPriorityQueue(cfg.queue_capacity)
        admission = AdmissionController(queue, slack=cfg.backpressure_slack)
        scheduler = BatchScheduler(
            self.device, max_batch=cfg.max_batch,
            memory_safety=cfg.memory_safety, batching=cfg.mode == "batched")
        metrics = ServeMetrics()
        records: list[RequestRecord] = []
        segments: list[tuple[float, Timeline]] = []

        def respond(req: QueryRequest, t: float) -> None:
            """Closed-loop feedback: any response (result or shed) lets the
            client think and issue its next query."""
            if arrivals is None:
                return
            nxt = arrivals.on_completion(req, t)
            if nxt is not None:
                heapq.heappush(pending, (nxt.arrival_s, nxt.req_id, nxt))

        now = 0.0
        batch_idx = 0
        epoch = 0
        while pending or len(queue):
            if not len(queue):
                now = max(now, pending[0][0])
            while pending and pending[0][0] <= now:
                req = heapq.heappop(pending)[2]
                metrics.offered += 1
                decision = admission.offer(req, req.arrival_s)
                if decision is AdmissionDecision.ADMITTED:
                    metrics.admitted += 1
                elif decision is AdmissionDecision.SHED_QUEUE_FULL:
                    metrics.shed_queue_full += 1
                    records.append(RequestRecord(req, "shed_queue_full"))
                    respond(req, req.arrival_s)
                else:
                    metrics.shed_backpressure += 1
                    records.append(RequestRecord(req, "shed_backpressure"))
                    respond(req, req.arrival_s)
            for req in queue.drop_expired(now):
                metrics.shed_expired += 1
                records.append(RequestRecord(req, "shed_expired"))
                respond(req, now)
            batch = scheduler.next_batch(queue, now)
            if cfg.shed_unsafe and batch:
                safe = []
                for req in batch:
                    if self._statically_unsafe(req):
                        metrics.shed_unsafe += 1
                        records.append(RequestRecord(req, "shed_unsafe"))
                        respond(req, now)
                    else:
                        safe.append(req)
                batch = safe
            if not batch:
                continue

            assignment = DispatchRequest(tuple(batch), batch_idx, 0)
            epoch += 1
            (makespan, timeline, degraded, faults_seen, warnings), = \
                self.engine.execute_round([assignment], epoch)
            segments.append((now, timeline))
            metrics.batches += 1
            metrics.batch_sizes.append(len(batch))
            metrics.busy_s += makespan
            metrics.degraded_batches += int(degraded)
            metrics.faults_observed += faults_seen
            metrics.analysis_warnings += warnings
            admission.note_service(len(batch), makespan)

            t_end = now + makespan
            for req in batch:
                ok = t_end <= req.deadline_s
                metrics.record_completion(req.tenant, t_end - req.arrival_s, ok)
                records.append(RequestRecord(
                    req, "completed" if ok else "missed_deadline", t_end))
                respond(req, t_end)
            now = t_end
            batch_idx += 1

        metrics.served_s = now
        metrics.check_finite()
        return ServeResult(config=cfg, metrics=metrics, records=records,
                           segments=segments,
                           segment_devices=[0] * len(segments))

    # ------------------------------------------------------------------
    def _run_multi(self, trace: list[QueryRequest],
                   arrivals: ArrivalProcess | None) -> ServeResult:
        """The ``devices > 1`` loop: shared admission and batching,
        least-outstanding-bytes routing, overlapping lane completions."""
        from .scheduler import request_footprint

        cfg = self.config
        pending: list[tuple[float, int, QueryRequest]] = [
            (r.arrival_s, r.req_id, r) for r in trace]
        heapq.heapify(pending)
        queue = BoundedPriorityQueue(cfg.queue_capacity)
        admission = AdmissionController(queue, slack=cfg.backpressure_slack)
        scheduler = BatchScheduler(
            self.lane_device, max_batch=cfg.max_batch,
            memory_safety=cfg.memory_safety, batching=cfg.mode == "batched")
        metrics = ServeMetrics()
        for dev in range(cfg.devices):
            metrics.per_device[dev] = DeviceLaneStats()
        records: list[RequestRecord] = []
        segments: list[tuple[float, Timeline]] = []
        segment_devices: list[int] = []

        def respond(req: QueryRequest, t: float) -> None:
            if arrivals is None:
                return
            nxt = arrivals.on_completion(req, t)
            if nxt is not None:
                heapq.heappush(pending, (nxt.arrival_s, nxt.req_id, nxt))

        #: lane bookkeeping: when each device frees up, and how many
        #: estimated batch bytes it still has in flight (routing signal)
        busy_until = {dev: 0.0 for dev in range(cfg.devices)}
        outstanding = {dev: 0.0 for dev in range(cfg.devices)}
        #: min-heap of running batches: (t_end, seq, dev, batch, bytes)
        inflight: list[tuple[float, int, int, list[QueryRequest], float]] = []

        now = 0.0
        batch_idx = 0
        seq = 0
        epoch = 0
        last_end = 0.0
        while pending or len(queue) or inflight:
            while pending and pending[0][0] <= now:
                req = heapq.heappop(pending)[2]
                metrics.offered += 1
                decision = admission.offer(req, req.arrival_s)
                if decision is AdmissionDecision.ADMITTED:
                    metrics.admitted += 1
                elif decision is AdmissionDecision.SHED_QUEUE_FULL:
                    metrics.shed_queue_full += 1
                    records.append(RequestRecord(req, "shed_queue_full"))
                    respond(req, req.arrival_s)
                else:
                    metrics.shed_backpressure += 1
                    records.append(RequestRecord(req, "shed_backpressure"))
                    respond(req, req.arrival_s)
            while inflight and inflight[0][0] <= now:
                t_end, _, dev, batch, nbytes = heapq.heappop(inflight)
                outstanding[dev] -= nbytes
                last_end = max(last_end, t_end)
                for req in batch:
                    ok = t_end <= req.deadline_s
                    metrics.record_completion(
                        req.tenant, t_end - req.arrival_s, ok)
                    records.append(RequestRecord(
                        req, "completed" if ok else "missed_deadline",
                        t_end))
                    respond(req, t_end)
            for req in queue.drop_expired(now):
                metrics.shed_expired += 1
                records.append(RequestRecord(req, "shed_expired"))
                respond(req, now)

            # form the whole round before executing it: routing below only
            # depends on pre-round lane state (a routed lane leaves `idle`,
            # and `outstanding`/`note_service` updates cannot influence the
            # same round), so deferring execution is outcome-identical
            idle = [dev for dev in range(cfg.devices)
                    if busy_until[dev] <= now]
            assignments: list[DispatchRequest] = []
            while idle and len(queue):
                batch = scheduler.next_batch(queue, now)
                if not batch:
                    break
                if cfg.shed_unsafe:
                    safe = []
                    for req in batch:
                        if self._statically_unsafe(req):
                            metrics.shed_unsafe += 1
                            records.append(
                                RequestRecord(req, "shed_unsafe"))
                            respond(req, now)
                        else:
                            safe.append(req)
                    batch = safe
                    if not batch:
                        continue
                # least outstanding bytes wins the batch; ties go to the
                # lowest device id
                dev = min(idle, key=lambda d: (outstanding[d], d))
                idle.remove(dev)
                assignments.append(
                    DispatchRequest(tuple(batch), batch_idx, dev))
                batch_idx += 1
            if assignments:
                epoch += 1
                outcomes = self.engine.execute_round(assignments, epoch)
                for a, (makespan, timeline, degraded, faults_seen,
                        warnings) in zip(assignments, outcomes):
                    dev = a.lane
                    batch = list(a.batch)
                    segments.append((now, timeline))
                    segment_devices.append(dev)
                    nbytes = sum(request_footprint(r) for r in batch)
                    metrics.batches += 1
                    metrics.batch_sizes.append(len(batch))
                    metrics.busy_s += makespan
                    metrics.degraded_batches += int(degraded)
                    metrics.faults_observed += faults_seen
                    metrics.analysis_warnings += warnings
                    lane = metrics.per_device[dev]
                    lane.batches += 1
                    lane.queries += len(batch)
                    lane.busy_s += makespan
                    lane.dispatched_bytes += nbytes
                    # the estimator sees per-query service time as before;
                    # with N lanes the backlog drains N-wide, so the wait a
                    # queued query faces shrinks accordingly
                    admission.note_service(
                        len(batch) * cfg.devices, makespan)
                    t_end = now + makespan
                    busy_until[dev] = t_end
                    outstanding[dev] += nbytes
                    heapq.heappush(inflight, (t_end, seq, dev, batch, nbytes))
                    seq += 1
                continue

            horizons = []
            if pending:
                horizons.append(pending[0][0])
            if inflight:
                horizons.append(inflight[0][0])
            if len(queue):
                # queued work but every lane busy: wait for the first
                # completion (inflight must be non-empty here)
                horizons = [h for h in horizons if h > now] or horizons
            if not horizons:
                break  # pragma: no cover - loop guard implies an event
            now = max(now, min(horizons))

        metrics.served_s = last_end if metrics.completed else now
        metrics.check_finite()
        return ServeResult(config=cfg, metrics=metrics, records=records,
                           segments=segments,
                           segment_devices=segment_devices)

    # ------------------------------------------------------------------
    def _statically_unsafe(self, req: QueryRequest) -> bool:
        """Admission-side memory check: True when the abstract interpreter
        proves the request cannot fit the lane device resident (MEM701
        under serial execution at this config's ``memory_safety``).
        Verdicts are memoized per (query kind, elements)."""
        memo = getattr(self, "_unsafe_memo", None)
        if memo is None:
            memo = self._unsafe_memo = {}
        key = (req.kind, req.elements)
        if key not in memo:
            from ..analyze.memory_check import check_strategy
            from ..runtime.strategies import Strategy
            verdict = check_strategy(
                req.plan(), Strategy.SERIAL, req.source_rows(),
                self.lane_device, memory_safety=self.config.memory_safety)
            memo[key] = verdict.certain_oom
        return memo[key]
