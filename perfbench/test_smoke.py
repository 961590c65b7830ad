"""Smoke test of the benchmark: every workload at tiny size.

Each run must print every metric BENCHMARK.json declares, with its
unit, and check every solve without a failure.  hull-lp is run too,
although BENCHMARK.json does not list it (see WORKLOADS.md).  Run with
``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-long-runs", "polytope-adaptive", "hull-lp"])
def test_tiny_run_emits_every_metric(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["failed"] == 0, out.stderr
    assert result["correct"] and result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["failed_frac"] == 0.0
        assert metrics["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.01)
    else:
        assert metrics["verified_frac"] == 1.0
        assert all(v > 0 for v in metrics.values())


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
