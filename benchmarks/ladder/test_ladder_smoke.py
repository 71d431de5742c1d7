"""Smoke test of the ladder: every workload runs and names every metric.

Runs ``run.py`` as a subprocess, as the benchmark driver does, at the
hard-coded ``--smoke`` size.  Asserts shape and correctness only — no timing
value is compared, so the test cannot flake on a loaded machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, output: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--trace", str(trace), "--smoke", "-o", str(output)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload, tmp_path):
    result = _run(workload, 0, tmp_path / "runs.jsonl")
    _assert_result(result, BENCHMARK["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    record = json.loads((tmp_path / "runs.jsonl").read_text())
    assert record["smoke"] is True and record["bound_violations"] == 0
    for key in ("seed", "git_sha", "nproc", "cpu_model", "python", "numpy", "wall_s"):
        assert key in record
    assert all(entry["samples"] >= 1 for entry in record["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_compare_refuses_smoke(tmp_path):
    output = tmp_path / "runs.jsonl"
    result = _run(WORKLOADS[0], 1, output)
    _assert_result(result, BENCHMARK["per_layer"])
    assert result["metrics"]["registry.hit_ratio"]["value"] == 1.0
    refused = subprocess.run([sys.executable, str(HERE / "compare.py"), str(output)],
                             capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2
    assert "smoke" in refused.stderr
