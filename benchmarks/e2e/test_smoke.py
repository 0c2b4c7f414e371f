"""Smoke test of the benchmark itself (not part of tier-1).

Run explicitly with ``pytest benchmarks/e2e``: every workload, plain and
traced, at ``--quick`` size, must print every metric BENCHMARK.json
names -- with that unit -- and fail no op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_quick_run_reports_every_declared_metric(workload: str, trace: int) -> None:
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / DECLARED["command"][1]),
            "--workload", workload,
            "--seed", "3",
            "--quick",
            "--trace", str(trace),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
