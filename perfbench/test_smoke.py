"""Smoke test of the benchmark: every workload at a tiny size.

Checks that each run exits 0 and prints, as its last line, every metric of
BENCHMARK.json with its unit. The tiny inputs (2 subjects, 2 s trials) are
too short for the 1% closed-form tolerance, so ``correct`` is not asserted
here; the full-size runs assert it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_end_to_end_metrics(workload):
    result = result_of(run_bench(workload, trace=0))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_per_layer_metrics():
    result = result_of(run_bench("study_all", trace=1))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units(SPEC["per_layer"])
    assert result["metrics"]["biomech.simulate_trial.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cohort_numerics", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
