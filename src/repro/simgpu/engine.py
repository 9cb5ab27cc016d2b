"""Discrete-event simulation of a CUDA-stream capable device.

Models the NVIDIA C2070 concurrency envelope the paper exploits (SS IV-B):

* commands within one stream execute in order;
* commands in different streams may overlap;
* one H2D transfer, one D2H transfer (two copy engines) and kernels (SM
  pool) can be in flight simultaneously;
* concurrent kernels partition the SM pool and pay a small interference
  penalty (Fig 12).

Commands optionally carry a *thunk* -- a Python callable that performs the
functional (NumPy) work when the command completes, so logical results
materialize in simulated-time order.

Fault injection (docs/FAULTS.md): when constructed with a
:class:`~repro.faults.injector.FaultInjector`, the engine consults it at
dispatch time.  A transient transfer/launch failure occupies its engine for
the detection latency, is logged as a ``fault.``-prefixed event, and the
command is retried in place after an exponential backoff; a stall past the
timeout is abandoned (``fault.stall.`` event) and the command re-issued,
its completion logged on a fresh replacement stream id.  Thunks only run on
success, so functional results are never produced twice.  When retries are
exhausted a typed :class:`~repro.errors.FaultError` escapes and the streams
are pruned to exactly the commands that have not completed, so callers can
surface or re-run the remaining work.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..errors import (
    FaultError,
    KernelLaunchFaultError,
    SchedulingError,
    StreamStallError,
    TransferFaultError,
)
from .compute import CONCURRENT_PENALTY, KernelLaunchSpec, kernel_duration, sms_requested
from .device import DeviceSpec
from .pcie import Direction, HostMemory, PcieModel
from .timeline import EventKind, Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..faults.injector import FaultInjector

Thunk = Callable[[], None]

#: global enqueue counter: the engine dispatches ready commands in enqueue
#: order (FIFO across streams), which is how the CUDA driver arbitrates
#: same-engine work queued to different streams.
_ENQUEUE_SEQ = itertools.count()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Command:
    """Base simulated command.  The whole hierarchy is slotted: serve-scale
    DES runs enqueue hundreds of thousands of commands, and per-command
    ``__dict__`` allocation dominated the hot loop before slotting
    (BENCH_devices.json tracks the resulting events/sec)."""

    tag: str = ""
    thunk: Thunk | None = None
    seq: int = -1  # stamped at enqueue time
    #: logical buffer names this command reads / writes.  Purely
    #: declarative -- the engine ignores them; the static race detector
    #: (:mod:`repro.analyze`) uses them to find unordered conflicting
    #: accesses before anything runs.
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()


@dataclass(slots=True)
class TransferCommand(Command):
    nbytes: float = 0.0
    direction: Direction = Direction.H2D
    memory: HostMemory = HostMemory.PINNED


@dataclass(slots=True)
class KernelCommand(Command):
    spec: KernelLaunchSpec | None = None


@dataclass(slots=True)
class HostCommand(Command):
    duration: float = 0.0


@dataclass(slots=True)
class SignalEventCommand(Command):
    event_id: int = 0


@dataclass(slots=True)
class WaitEventCommand(Command):
    event_id: int = 0


@dataclass(slots=True)
class SimStream:
    """An in-order command queue (one simulated CUDA stream)."""

    stream_id: int
    commands: list[Command] = field(default_factory=list)

    def enqueue(self, cmd: Command) -> "SimStream":
        cmd.seq = next(_ENQUEUE_SEQ)
        self.commands.append(cmd)
        return self

    def h2d(self, nbytes: float, memory: HostMemory = HostMemory.PINNED,
            tag: str = "h2d", thunk: Thunk | None = None,
            reads: tuple[str, ...] = (), writes: tuple[str, ...] = ()
            ) -> "SimStream":
        return self.enqueue(TransferCommand(
            tag=tag, thunk=thunk, nbytes=nbytes,
            direction=Direction.H2D, memory=memory,
            reads=reads, writes=writes))

    def d2h(self, nbytes: float, memory: HostMemory = HostMemory.PINNED,
            tag: str = "d2h", thunk: Thunk | None = None,
            reads: tuple[str, ...] = (), writes: tuple[str, ...] = ()
            ) -> "SimStream":
        return self.enqueue(TransferCommand(
            tag=tag, thunk=thunk, nbytes=nbytes,
            direction=Direction.D2H, memory=memory,
            reads=reads, writes=writes))

    def kernel(self, spec: KernelLaunchSpec,
               tag: str | None = None, thunk: Thunk | None = None,
               reads: tuple[str, ...] = (), writes: tuple[str, ...] = ()
               ) -> "SimStream":
        return self.enqueue(KernelCommand(
            tag=tag if tag is not None else spec.name, thunk=thunk, spec=spec,
            reads=reads, writes=writes))

    def host(self, duration: float, tag: str = "host",
             thunk: Thunk | None = None,
             reads: tuple[str, ...] = (), writes: tuple[str, ...] = ()
             ) -> "SimStream":
        return self.enqueue(HostCommand(
            tag=tag, thunk=thunk, duration=duration,
            reads=reads, writes=writes))

    def signal(self, event_id: int, tag: str | None = None) -> "SimStream":
        return self.enqueue(SignalEventCommand(
            tag=tag if tag is not None else f"signal:{event_id}",
            event_id=event_id))

    def wait_event(self, event_id: int, tag: str | None = None) -> "SimStream":
        return self.enqueue(WaitEventCommand(
            tag=tag if tag is not None else f"wait:{event_id}",
            event_id=event_id))


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Running:
    end: float
    stream_idx: int
    cmd: Command
    granted_sms: int = 0
    #: this attempt was decided to fail (transient fault or stall timeout)
    failed: bool = False
    #: the failure is a stall abandonment (re-issue on a fresh stream)
    stalled: bool = False
    #: dispatch time, stamped when the attempt is pushed on the heap
    start: float = 0.0


class SimEngine:
    """Runs a set of :class:`SimStream` queues to completion.

    Returns a :class:`Timeline` of everything that happened.  The engine is
    deterministic: ties are broken by stream id.  An optional
    :class:`~repro.faults.injector.FaultInjector` makes commands fail,
    stall, or slow down on purpose; the engine then repairs the schedule
    with bounded retries (see module docstring).
    """

    def __init__(self, device: DeviceSpec, pcie: PcieModel | None = None,
                 check: bool = False, faults: "FaultInjector | None" = None):
        self.device = device
        self.pcie = pcie or PcieModel(device.calib.pcie)
        self.check = check
        self.faults = faults
        self._event_counter = itertools.count()

    def new_event_id(self) -> int:
        return next(self._event_counter)

    # -- fault hooks --------------------------------------------------------
    def _fault_adjust(self, cmd: Command, dur: float
                      ) -> tuple[float, bool, bool]:
        """Apply injected faults to a dispatching command.

        Returns ``(attempt_duration, failed, stalled)``.  At most one fault
        fires per attempt: hard failures are probed first, then stalls
        (transfers/kernels) or slowdowns (host work).
        """
        fi = self.faults
        if fi is None:
            return dur, False, False
        retry = fi.plan.retry
        site = cmd.tag
        if isinstance(cmd, TransferCommand):
            if fi.transfer_fault(site, h2d=cmd.direction is Direction.H2D):
                detect = max(self.pcie.calib.latency_s,
                             dur * retry.transfer_fail_fraction)
                return detect, True, False
            factor = fi.stall(site)
            if factor is not None:
                stalled_dur = dur * factor
                if stalled_dur > retry.stall_timeout_s:
                    return retry.stall_timeout_s, True, True
                return stalled_dur, False, False
            factor = fi.host_slowdown(site)
            if factor is not None:
                # loaded host: the staging path (paged bounce buffer /
                # pinned setup) stretches -- see PcieModel.transfer_time
                return self.pcie.transfer_time(
                    cmd.nbytes, cmd.direction, cmd.memory,
                    host_slowdown=factor), False, False
        elif isinstance(cmd, KernelCommand):
            if fi.kernel_fault(site):
                return retry.kernel_fail_latency_s, True, False
            factor = fi.stall(site)
            if factor is not None:
                stalled_dur = dur * factor
                if stalled_dur > retry.stall_timeout_s:
                    return retry.stall_timeout_s, True, True
                return stalled_dur, False, False
        elif isinstance(cmd, HostCommand):
            factor = fi.host_slowdown(site)
            if factor is not None:
                return dur * factor, False, False
        return dur, False, False

    @staticmethod
    def _fault_error(cmd: Command, attempts: int) -> FaultError:
        if isinstance(cmd, TransferCommand):
            return TransferFaultError(cmd.tag, attempts)
        if isinstance(cmd, KernelCommand):
            return KernelLaunchFaultError(cmd.tag, attempts)
        return FaultError(cmd.tag, attempts)

    # -- main loop ----------------------------------------------------------
    def run(self, streams: list[SimStream], timeline: Timeline | None = None,
            start_time: float = 0.0) -> Timeline:
        cursors = [0] * len(streams)          # next command index per stream
        try:
            return self._run(streams, cursors, timeline, start_time)
        except FaultError:
            # leave each queue holding exactly the commands that did not
            # complete, so callers (e.g. StreamPool) can surface or re-run
            # the remaining work instead of losing it
            for i, s in enumerate(streams):
                del s.commands[:cursors[i]]
            raise

    def _run(self, streams: list[SimStream], cursors: list[int],
             timeline: Timeline | None = None,
             start_time: float = 0.0) -> Timeline:
        tl = timeline if timeline is not None else Timeline()
        now = start_time
        blocked_until_done = [False] * len(streams)
        #: earliest simulated time each stream may dispatch again (backoff)
        ready_at = [start_time] * len(streams)
        running: list[tuple[float, int, _Running]] = []  # heap by end time
        seq = itertools.count()
        signaled: set[int] = set()

        #: failed attempts per command (id-keyed; commands are unique objects)
        attempts: dict[int, int] = {}
        #: commands abandoned by a stall, mapped to their replacement
        #: (fresh) stream id for the re-issued completion event
        reissued_stream: dict[int, int] = {}
        replacement_ids = itertools.count(
            max((s.stream_id for s in streams), default=0) + 1)
        retry = self.faults.plan.retry if self.faults is not None else None

        h2d_busy = False
        d2h_busy = False
        host_busy = False
        free_sms = self.device.num_sms
        kernels_in_flight = 0

        #: commands not yet completed (cursor not yet advanced past them).
        #: Maintained incrementally so the outer loop does not rescan every
        #: stream per iteration -- the dominant cost at serve scale.
        remaining = sum(len(s.commands) - cursors[i]
                        for i, s in enumerate(streams))
        num_streams = len(streams)

        while remaining or running:
            dispatched = True
            while dispatched:
                dispatched = False
                # FIFO across streams: consider stream heads in enqueue
                # order.  seq values are globally unique, so sorting
                # (seq, i) pairs reproduces the old lambda-keyed order
                # without a per-element key call.
                heads = sorted(
                    (streams[i].commands[cursors[i]].seq, i)
                    for i in range(num_streams)
                    if not blocked_until_done[i]
                    and cursors[i] < len(streams[i].commands)
                    and ready_at[i] <= now
                )
                for _, i in heads:
                    stream = streams[i]
                    cmd = stream.commands[cursors[i]]
                    # -- resource-bound commands (the common case) -----------
                    if isinstance(cmd, TransferCommand):
                        if cmd.direction is Direction.H2D and h2d_busy:
                            continue
                        if cmd.direction is Direction.D2H and d2h_busy:
                            continue
                        dur = self.pcie.transfer_time(
                            cmd.nbytes, cmd.direction, cmd.memory)
                        dur, failed, stalled = self._fault_adjust(cmd, dur)
                        if cmd.direction is Direction.H2D:
                            h2d_busy = True
                        else:
                            d2h_busy = True
                        run = _Running(end=now + dur, stream_idx=i, cmd=cmd,
                                       failed=failed, stalled=stalled)
                    elif isinstance(cmd, KernelCommand):
                        if cmd.spec is None:
                            raise SchedulingError(f"kernel command {cmd.tag} has no spec")
                        if free_sms <= 0:
                            continue
                        want = sms_requested(self.device, cmd.spec)
                        grant = min(want, free_sms)
                        concurrent = kernels_in_flight > 0
                        dur = kernel_duration(
                            self.device, cmd.spec,
                            granted_sms=grant, concurrent=concurrent)
                        dur, failed, stalled = self._fault_adjust(cmd, dur)
                        free_sms -= grant
                        kernels_in_flight += 1
                        run = _Running(end=now + dur, stream_idx=i,
                                       cmd=cmd, granted_sms=grant,
                                       failed=failed, stalled=stalled)
                    elif isinstance(cmd, HostCommand):
                        if host_busy:
                            continue
                        dur, failed, stalled = self._fault_adjust(
                            cmd, cmd.duration)
                        host_busy = True
                        run = _Running(end=now + dur, stream_idx=i, cmd=cmd,
                                       failed=failed, stalled=stalled)
                    # -- zero-duration control commands ----------------------
                    elif isinstance(cmd, SignalEventCommand):
                        signaled.add(cmd.event_id)
                        tl.add(now, now, EventKind.SYNC, cmd.tag,
                               stream=stream.stream_id)
                        cursors[i] += 1
                        remaining -= 1
                        dispatched = True
                        continue
                    elif isinstance(cmd, WaitEventCommand):
                        if cmd.event_id in signaled:
                            tl.add(now, now, EventKind.SYNC, cmd.tag,
                                   stream=stream.stream_id)
                            cursors[i] += 1
                            remaining -= 1
                            dispatched = True
                        continue
                    else:
                        raise SchedulingError(f"unknown command type: {cmd!r}")

                    blocked_until_done[i] = True
                    run.start = now
                    heapq.heappush(running, (run.end, next(seq), run))
                    dispatched = True

            if not running:
                # streams may be idle only because of retry backoff: jump
                # simulated time to the earliest ready stream and re-dispatch
                future = [ready_at[i] for i, s in enumerate(streams)
                          if cursors[i] < len(s.commands) and ready_at[i] > now]
                if future:
                    now = min(future)
                    continue
                if remaining:
                    raise SchedulingError(
                        "deadlock: streams pending but nothing can be dispatched "
                        "(wait on an event that is never signaled?)")
                break

            # advance to next completion; complete everything ending then
            end_time, _, run = heapq.heappop(running)
            completions = [run]
            while running and running[0][0] == end_time:
                completions.append(heapq.heappop(running)[2])
            now = end_time

            for run in completions:
                cmd = run.cmd
                start = run.start
                # a command re-issued after a stall completes on its fresh
                # replacement stream; everything else on its own stream
                event_stream = reissued_stream.get(
                    id(cmd), streams[run.stream_idx].stream_id)
                tag = cmd.tag
                if run.failed:
                    tag = ("fault.stall." if run.stalled else "fault.") + tag
                if isinstance(cmd, TransferCommand):
                    kind = EventKind.H2D if cmd.direction is Direction.H2D else EventKind.D2H
                    tl.add(start, now, kind, tag, stream=event_stream,
                           nbytes=cmd.nbytes)
                    if cmd.direction is Direction.H2D:
                        h2d_busy = False
                    else:
                        d2h_busy = False
                elif isinstance(cmd, KernelCommand):
                    tl.add(start, now, EventKind.KERNEL, tag,
                           stream=event_stream,
                           nbytes=cmd.spec.total_traffic if cmd.spec else 0.0,
                           sms=run.granted_sms)
                    free_sms += run.granted_sms
                    kernels_in_flight -= 1
                elif isinstance(cmd, HostCommand):
                    tl.add(start, now, EventKind.HOST, tag,
                           stream=event_stream)
                    host_busy = False
                blocked_until_done[run.stream_idx] = False
                if run.failed:
                    # retry in place: cursor stays, thunk does not run
                    n_failed = attempts[id(cmd)] = attempts.get(id(cmd), 0) + 1
                    assert retry is not None
                    if n_failed > retry.max_retries:
                        if run.stalled:
                            raise StreamStallError(cmd.tag, n_failed)
                        raise self._fault_error(cmd, n_failed)
                    self.faults.note_retry(cmd.tag)
                    if run.stalled:
                        # abandoned past the timeout: re-issue immediately,
                        # completion will be logged on a fresh stream
                        reissued_stream[id(cmd)] = next(replacement_ids)
                        self.faults.note_reissue(cmd.tag)
                    else:
                        ready_at[run.stream_idx] = now + retry.backoff(n_failed)
                    continue
                reissued_stream.pop(id(cmd), None)
                if cmd.thunk is not None:
                    cmd.thunk()
                cursors[run.stream_idx] += 1
                remaining -= 1

        if self.check:
            # imported lazily: repro.validate depends on this module's package
            from ..validate import validate_timeline
            validate_timeline(tl, self.device).raise_if_failed()
        return tl


__all__ = [
    "Command", "TransferCommand", "KernelCommand", "HostCommand",
    "SignalEventCommand", "WaitEventCommand", "SimStream", "SimEngine",
    "CONCURRENT_PENALTY",
]
