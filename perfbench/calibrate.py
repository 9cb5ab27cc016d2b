"""Calibrate plan-cluster's Zipf skew against the prototype's cache figures.

Usage, from the repository root::

    python3 perfbench/calibrate.py [--skews 1.05 1.2 1.3] [--seeds 1-3]
                                   [--requests 150]

The plan-cluster workload was designed from a 150-request prototype in
which 0.41 of all ``PlanCache`` lookups hit and the cache evicted 932
entries.  For each skew and seed this serves a plan-cluster stream of
that many requests, drawn as the workload draws it, from an empty cache,
and prints the lookup hit ratio, the evictions and the share of requests
answered by a cached decision, with their means over the seeds next to the
prototype's figures.  ``PlanCluster.ZIPF_S`` says which skew the workload
uses and why it is not the closest one.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import PlanCluster, draw  # noqa: E402

PROTOTYPE = {"hit_ratio": 0.41, "evictions": 932}


def serve(kinds, skew: float, seed: int, n: int) -> dict:
    from repro.optimizer import Optimizer, PlanCache
    from repro.serve import arrivals

    rng = random.Random(seed)
    triples, weights = PlanCluster.ranked(kinds, skew)
    cache = PlanCache()
    opt = Optimizer(cache=cache)
    decision_hits = 0
    for kind, scale, devices in draw(rng, triples, weights, n):
        _, decision = opt.run(arrivals.catalog_plan(kind),
                              arrivals.catalog_rows(kind, scale),
                              max_devices=devices)
        decision_hits += decision.cache_hit
    return {"hit_ratio": cache.hits / (cache.hits + cache.misses),
            "evictions": cache.evictions,
            "decision_hits": decision_hits / n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--skews", type=float, nargs="+",
                    default=[1.05, 1.2, PlanCluster.ZIPF_S])
    ap.add_argument("--seeds", default="1-3")
    ap.add_argument("--requests", type=int, default=150)
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    from repro.serve import arrivals

    kinds = ("q1", "q21") + arrivals.FRONTEND_KINDS
    print(f"prototype: hit_ratio {PROTOTYPE['hit_ratio']}, evictions "
          f"{PROTOTYPE['evictions']} per 150 requests")
    for skew in args.skews:
        runs = [serve(kinds, skew, seed, args.requests) for seed in seeds]
        for seed, r in zip(seeds, runs):
            print(f"skew {skew}  seed {seed}  hit_ratio {r['hit_ratio']:.3f}"
                  f"  evictions {r['evictions']:5d}  decision_hits "
                  f"{r['decision_hits']:.3f}")
        print(f"skew {skew}  mean    hit_ratio "
              f"{statistics.mean(r['hit_ratio'] for r in runs):.3f}"
              f"  evictions {statistics.mean(r['evictions'] for r in runs):7.1f}"
              f"  decision_hits "
              f"{statistics.mean(r['decision_hits'] for r in runs):.3f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
