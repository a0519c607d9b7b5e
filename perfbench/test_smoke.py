"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from run import WORKLOADS, tail  # noqa: E402


def test_smoke_emits_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = [line for line in proc.stdout.splitlines() if line.startswith("SMOKE ")]
    assert len(lines) == 2 * len(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(line.split()[3] == "ok" for line in lines), "\n".join(lines)


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suite_n4", "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_unknown_workload_fails_without_result():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize(
    "k, percentile",
    [(5, 50), (19, 50), (20, 50), (21, 52), (100, 90), (1000, 99)],
)
def test_tail_leaves_ten_samples_above(k, percentile):
    values = [float(v) for v in range(k)]
    p, value = tail(values)
    assert p == percentile
    if p > 50:
        assert sum(v > value for v in values) >= 10
