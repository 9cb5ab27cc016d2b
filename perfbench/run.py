"""Two-clock benchmark of the reproduction: wall time and simulated time.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpch-sql --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                   # every workload, one process each

With ``--trace 0`` the run measures the end-to-end metrics with no tracing
installed.  With ``--trace 1`` it first runs the same workload and seed
untraced in a child process, then again with spans around each layer's
public entry points (``layers.py``), and reports the per-layer metrics; it
fails unless every simulated metric and count equals the untraced run's.
Spans are written to ``.perfbench/`` at the repository root.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# one thread per workload process, set before NumPy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: a child run gets this long before the parent gives up on it
CHILD_TIMEOUT_S = 170
#: times importing the given modules in a fresh interpreter
IMPORT_PROBE = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                "[importlib.import_module(m) for m in sys.argv[2:]]; "
                "print(time.perf_counter() - t)")

sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from workloads import WORKLOADS, latency_summary  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _load_program() -> str | None:
    """Put this checkout's ``src`` first on the path; an error message
    when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program sources at {SRC}"
    sys.path.insert(0, str(SRC))
    spec_ = importlib.util.find_spec("repro")
    if spec_ is None or Path(spec_.origin).resolve().parent != SRC / "repro":
        return f"repro does not resolve to {SRC / 'repro'}"
    return None


def _child(args, workload: str, trace: int) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def _import_s(modules: tuple[str, ...]) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC),
                           *modules], capture_output=True, text=True,
                          check=True, timeout=CHILD_TIMEOUT_S)
    return float(proc.stdout)


def _line(workload: str, name: str, value: float, unit: str,
          note: str = "") -> None:
    print(f"{workload:13s} {name:26s} {value:16.6f} {unit:9s} {note}".rstrip())


def run_one(args) -> int:
    from tracing import Tracer
    import layers

    tracer = Tracer() if args.trace else None
    untraced = None
    if tracer is not None:
        code, lines = _child(args, args.workload, 0)
        details = [ln for ln in lines if ln.startswith("detail: ")]
        if code != 0 or not details:
            print(f"untraced run failed (exit {code})", file=sys.stderr)
            return 1
        untraced = json.loads(details[-1][len("detail: "):])

    t0 = time.perf_counter()
    work = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    import_s = time.perf_counter() - t0
    if tracer is not None:
        layers.install(tracer)
    # every repetition starts from scratch, so the traced run, which
    # reports no set-up time, sets up once
    setups = []
    for _ in range(SETUP_REPEATS if tracer is None else 1):
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        work.setup()
        setups.append(time.perf_counter() - t0)
    spans_before = len(tracer.spans) if tracer is not None else 0
    work.run()
    # the program's own peak: read before the checks, which run oracles
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        timed_spans = len(tracer.spans) - spans_before
        tracer.only = frozenset({layers.REFERENCE_SPAN})
    failures = work.check()
    if tracer is not None:
        tracer.recording = False

    attempted = work.attempted
    failed = min(len(failures), attempted)
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    sim = work.sim()
    lat = latency_summary(work.latencies)
    detail = {"workload": args.workload, "seed": args.seed,
              "sim": sim, "counts": work.counts(), "attempted": attempted,
              "failed": failed, "wall_s": work.wall_s,
              "import_s": import_s, "setup_repeats_s": setups,
              "latency_samples": lat["samples"],
              "beyond_p90": lat["beyond_p90"]}
    correct = not failures
    w = args.workload

    if tracer is None:
        # set-up i = import i + set-up repetition i; imports after the
        # first are timed in fresh interpreters, after the timed region
        imports = [import_s] + [_import_s(work.MODULES)
                                for _ in range(SETUP_REPEATS - 1)]
        detail["import_s"] = imports
        metrics = {
            "setup_s": statistics.median(
                i + s for i, s in zip(imports, setups)),
            "ops_per_s": work.ops_per_s(),
            "op_p50_ms": lat["op_p50_ms"],
            "op_p90_ms": lat["op_p90_ms"],
            "peak_rss_mb": peak_rss_mb,
            **{k: sim[k] for k in spec.END_TO_END if k.startswith("sim_")},
        }
        units = {k: u for k, (u, _, _) in spec.END_TO_END.items()}
        for name, value in metrics.items():
            note = ""
            if name == "op_p90_ms":
                note = (f"n={lat['samples']}, {lat['beyond_p90']} beyond"
                        + ("" if lat["beyond_p90"] >= 10
                           else " (fewer than 10)"))
            _line(w, name, value, units[name], note)
        _line(w, "op_fail_ratio", failed / attempted, "ratio",
              f"{failed} failed / {attempted} attempted")
        if "sim_slo_miss_ratio" in sim:
            _line(w, "sim_slo_miss_ratio", sim["sim_slo_miss_ratio"],
                  "ratio", "(shed + missed) / offered")
        counts = detail["counts"]
        if "decision_hits" in counts:
            _line(w, "decision_hit_ratio",
                  counts["decision_hits"] / counts["ops"], "ratio",
                  "timed requests answered by a cached decision")
            _line(w, "cache_lookup_hit_ratio", counts["cache_hits"]
                  / (counts["cache_hits"] + counts["cache_misses"]), "ratio",
                  f"all lookups incl. set-up, "
                  f"{counts['cache_evictions']} evictions")
    else:
        mismatches = [
            f"{key}: traced {mine} vs untraced {untraced[key]}"
            for key, mine in (("sim", sim), ("counts", work.counts()),
                              ("attempted", attempted), ("failed", failed))
            if mine != untraced[key]]
        for msg in mismatches:
            print(f"tracing perturbed the program: {msg}", file=sys.stderr)
        correct = correct and not mismatches
        # tracing's own cost: spans in the timed region times the cost of
        # one span, measured here rather than against the untraced child's
        # wall time, which machine speed drift would swamp
        overhead_s = timed_spans * Tracer.span_cost_s()
        detail["traced_spans"] = timed_spans
        detail["tracing_overhead_s"] = overhead_s
        metrics = layers.metrics(tracer,
                                 work.wall_s / (work.wall_s - overhead_s))
        metrics["serve.sim_slo_miss_ratio"] = sim.get("sim_slo_miss_ratio",
                                                      0.0)
        for name, value in metrics.items():
            _line(w, name, value, spec.PER_LAYER[name][0])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w}-seed{args.seed}.json"
        tracer.dump(str(spans_path))
        print(f"wrote {len(tracer.spans)} spans to {spans_path}")

    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": (spec.END_TO_END.get(name)
                                    or spec.PER_LAYER[name])[0]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines = _child(args, workload, args.trace)
        for ln in lines[:-1]:
            print(ln)
        worst = max(worst, code)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {code})", file=sys.stderr)
            return code or 1
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][workload] = result["metrics"]
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    problem = _load_program()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
