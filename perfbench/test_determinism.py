"""Self-tests of the benchmark: determinism, clean second seed, no program.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about three minutes; the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SECONDS = "1"
#: per-layer metrics that are wall-clock rates or ratios of wall times
WALL_DERIVED = {"simgpu.des_events_per_s", "trace.overhead_ratio"}


def _run(workload: str, seed: int, trace: int, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(ln[len("detail: "):]) for ln in lines
                   if ln.startswith("detail: ")), None)
    return proc, detail, json.loads(lines[-1]) if lines else None


def _deterministic(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if spec.PER_LAYER[name][0] != "ms" and name not in WALL_DERIVED}


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_gives_identical_sim_metrics_and_counts(workload):
    """Each traced run also fails unless it matches its own untraced run,
    so this covers traced == untraced as well as run == run."""
    first, first_detail, first_result = _run(workload, 3, trace=1)
    second, second_detail, second_result = _run(workload, 3, trace=1)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first_result["correct"] and second_result["correct"]
    assert first_detail["sim"] == second_detail["sim"]
    assert first_detail["counts"] == second_detail["counts"]
    assert (_deterministic(first_result["metrics"])
            == _deterministic(second_result["metrics"]))
    assert set(first_result["metrics"]) == set(spec.PER_LAYER)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_another_seed_runs_clean(workload):
    proc, detail, result = _run(workload, 2, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _, _ = _run("tpch-sql", 1, trace=0,
                      script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
