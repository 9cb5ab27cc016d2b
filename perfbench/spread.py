"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --seeds 1-10 [--workload tpch-sql ...]
                                [--trace 0|1] [--write FILE]
                                [--against FILE]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound in ``spec.py``; with
``--trace 1`` it does the same for the per-layer metrics.  ``--against``
a file written earlier reports, per end-to-end metric, how much worse
each median is than that set's, next to the bound.  Runs are
sequential, one process at a time.  ``--write`` records the figures and
each run's counts, with the layer map.  ``baseline.json`` (end to end,
seeds 1-10), ``baseline-repeat.json`` (the same, run again later with
``--against baseline.json``) and ``baseline-layers.json`` (per layer,
seeds 1-2) were written this way, as were ``baseline-skew2.5.json`` and
``baseline-seeded-tiers.json``, two plan-cluster streams that were
measured and not adopted (see ``PlanCluster.ZIPF_S`` and ``ranked``).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = [ln for ln in lines if ln.startswith("detail: ")]
    if detail:
        result["counts"] = json.loads(detail[-1][len("detail: "):])["counts"]
    result["exit"] = proc.returncode
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def _compare(now: dict, before: dict, bounds: dict) -> dict[str, float]:
    """Print and return each end-to-end median's move from an earlier set,
    as a share of the earlier median, positive when worse."""
    better = {n: b for n, (_, b, _) in spec.END_TO_END.items()}
    moves = {}
    for name, fig in now.items():
        if name not in bounds or name not in before:
            continue
        old = before[name]["median"]
        worse = (fig["median"] - old) / old
        if better[name] == "higher":
            worse = -worse
        moves[name] = worse
        flag = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
        print(f"  vs earlier set: {name:26s} median {old:14.4f} -> "
              f"{fig['median']:14.4f}  worse by {worse:+.4f} / bound "
              f"{bounds[name]}  {flag}")
    return moves


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", nargs="*", default=list(spec.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="write the figures to this JSON file")
    ap.add_argument("--against", help="a file --write made earlier: report "
                    "how far each median moved from it")
    args = ap.parse_args(argv)
    against = (json.loads(Path(args.against).read_text())
               if args.against else None)
    seeds = _seeds(args.seeds)
    bounds = {n: b for n, (_, _, b) in spec.END_TO_END.items()}
    report: dict = {}
    ok = True
    for workload in args.workload:
        results = [run(workload, s, args.seconds, args.trace) for s in seeds]
        bad = [s for s, r in zip(seeds, results)
               if r["exit"] or not r["correct"] or r["failed"]]
        ok = ok and not bad
        elapsed = [r["elapsed_s"] for r in results]
        print(f"{workload}: {len(seeds)} runs, {max(elapsed):.1f} s longest"
              + (f", FAILED seeds {bad}" if bad else ""))
        metrics = {}
        for name in results[0]["metrics"]:
            fig = summarize([r["metrics"][name]["value"] for r in results])
            metrics[name] = fig
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = ("ok" if fig["spread"] <= bound / 3 else
                        "within bound" if fig["spread"] <= bound else
                        "OVER BOUND")
            print(f"  {name:26s} median {fig['median']:14.4f}  "
                  f"q1 {fig['q1']:14.4f}  q3 {fig['q3']:14.4f}  "
                  f"spread {fig['spread']:.4f}"
                  + (f" / bound {bound}  {flag}" if bound is not None
                     else ""))
        report[workload] = {"seeds": seeds, "longest_run_s": max(elapsed),
                            "metrics": metrics,
                            "counts": [r.get("counts") for r in results]}
        if against is not None and workload in against["workloads"]:
            moves = _compare(metrics,
                             against["workloads"][workload]["metrics"],
                             bounds)
            report[workload]["worse_than_earlier"] = moves
            ok = ok and all(v <= bounds[n] for n, v in moves.items())
    if args.write:
        Path(args.write).write_text(json.dumps({
            "machine": f"{platform.machine()}, {platform.python_version()}",
            "seconds": args.seconds, "trace": args.trace,
            "against": args.against,
            "layer_map": spec.LAYER_MAP, "meaning": spec.END_TO_END_MEANING,
            "workloads": report}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.write}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
