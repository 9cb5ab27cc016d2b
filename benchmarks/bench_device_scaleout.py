"""Device-lane scale-out + the tracked DES hot-loop benchmark.

Two experiments, one tracked report (``BENCH_devices.json``):

**Device sweep** -- the serving subsystem's scale-out curve.  A fixed
seeded trace is served in-process with ``devices = N`` for N in the
sweep: each device lane is a contended device behind the shared host
(docs/SERVING.md), and lanes overlap in simulated time, so goodput rises
with the lane count.  CI gates that goodput is strictly increasing
across the sweep.

**DES hot loop** -- wall-time throughput of the simulator's discrete-event
core (``repro.simgpu.engine.SimEngine``), the loop every dispatch spends
its time in: heap-ordered completions over slotted command records.
Reported as processed events/second and the simulated-time : wall-time
ratio, with the pre-optimization measurements pinned in the payload so
the speedup stays visible in the tracked JSON:

==========  ============  =========
variant     events/sec    sim/wall
==========  ============  =========
before      58,562        8.21
after       86,660        12.15
==========  ============  =========

(before = per-command ``__dict__`` hierarchy, recursive DeviceSpec
hashing, O(streams^2) head scans; after = slotted commands, cached
device hash + memoized occupancy, counter-based head scan.)
"""

import time

from repro.bench import emit_json, format_table, json_output_path, print_header
from repro.serve import ArrivalProcess, QueryServer, ServeConfig
from repro.simgpu.compute import KernelLaunchSpec, default_grid
from repro.simgpu.engine import KernelCommand, SimEngine, SimStream, TransferCommand
from repro.simgpu.pcie import Direction

DEVICE_SWEEP = (1, 2, 4)
QPS = 120
DURATION_S = 1.0
SEED = 11

#: DES microbench shape: enough streams and commands that the event loop
#: (not setup) dominates the wall time
DES_STREAMS = 8
DES_COMMANDS_PER_STREAM = 600

#: pre-optimization baseline, measured on this machine at the same shape
#: (kept in the payload so the tracked JSON shows the hot-loop delta)
DES_BEFORE = {"events_per_s": 58_562.0, "sim_wall_ratio": 8.21}


def _serve(trace, devices):
    cfg = ServeConfig(mode="batched", queue_capacity=4096, devices=devices)
    return QueryServer(config=cfg).run(trace=list(trace)).metrics


def _des_streams(device):
    streams = []
    for s in range(DES_STREAMS):
        stream = SimStream(stream_id=s)
        for k in range(DES_COMMANDS_PER_STREAM):
            if k % 5 == 0:
                stream.enqueue(TransferCommand(
                    tag=f"h2d.{s}.{k}", nbytes=float(1 << 16),
                    direction=Direction.H2D))
            elif k % 7 == 0:
                stream.enqueue(TransferCommand(
                    tag=f"d2h.{s}.{k}", nbytes=float(1 << 14),
                    direction=Direction.D2H))
            else:
                n = 1 << 14
                ctas, tpc = default_grid(n, device)
                stream.enqueue(KernelCommand(
                    tag=f"k.{s}.{k}",
                    spec=KernelLaunchSpec(
                        name=f"k{k % 11}", num_elements=n, num_ctas=ctas,
                        threads_per_cta=tpc, regs_per_thread=16,
                        bytes_read=float(4 * n), bytes_written=float(4 * n),
                        instructions=float(10 * n))))
        streams.append(stream)
    return streams


def _des_hot_loop(device, rounds=3):
    """Best-of-N wall time of one SimEngine run over the fixed program."""
    best = None
    for _ in range(rounds):
        streams = _des_streams(device)
        engine = SimEngine(device)
        t0 = time.perf_counter()
        timeline = engine.run(streams)
        wall = time.perf_counter() - t0
        if best is None or wall < best[0]:
            best = (wall, timeline)
    wall, timeline = best
    events = len(timeline.events)
    return {
        "streams": DES_STREAMS,
        "commands_per_stream": DES_COMMANDS_PER_STREAM,
        "events": events,
        "wall_s": round(wall, 6),
        "events_per_s": round(events / wall, 1),
        "sim_s": round(timeline.end_time, 6),
        "sim_wall_ratio": round(timeline.end_time / wall, 2),
        "before": dict(DES_BEFORE),
    }


def _measure():
    trace = ArrivalProcess(qps=QPS, duration_s=DURATION_S,
                           seed=SEED).trace()
    return [(n, _serve(trace, devices=n)) for n in DEVICE_SWEEP]


def test_device_scaleout(benchmark, device):
    sweep = benchmark.pedantic(_measure, rounds=1, iterations=1)
    des = _des_hot_loop(device)

    print_header("Device lanes: goodput vs lane count",
                 "devices = N contended lanes behind one host, "
                 "served in-process", device)
    rows = []
    payload = {"device_sweep": list(DEVICE_SWEEP), "qps": QPS,
               "duration_s": DURATION_S, "seed": SEED,
               "points": [], "des_hot_loop": des}
    for n, m in sweep:
        rows.append([n, m.goodput_qps, m.latency.percentile(99) * 1e3,
                     m.completed_ok, m.batches])
        payload["points"].append({"devices": n, "metrics": m.summary()})
    print(format_table(
        ["devices", "goodput q/s", "p99 ms", "within SLO", "batches"],
        rows, width=15))
    print(f"DES hot loop: {des['events_per_s']:,.0f} events/s "
          f"(before {DES_BEFORE['events_per_s']:,.0f}), "
          f"sim/wall {des['sim_wall_ratio']:.2f} "
          f"(before {DES_BEFORE['sim_wall_ratio']:.2f})")

    out = emit_json("devices", payload,
                    path=json_output_path("devices") or "BENCH_devices.json")
    print(f"wrote {out}")

    goodputs = [m.goodput_qps for _, m in sweep]
    assert all(b > a for a, b in zip(goodputs, goodputs[1:])), (
        f"goodput must rise strictly with device lanes, got {goodputs}")
    # the hot loop must stay well clear of the pre-optimization plateau
    assert des["events_per_s"] > DES_BEFORE["events_per_s"]
