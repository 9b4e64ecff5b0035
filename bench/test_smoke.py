"""Smoke test: the benchmark runs end to end at a tiny size and reports every metric.

    python3 -m pytest bench/test_smoke.py

No timing is asserted; only that every metric named in BENCHMARK.json is
reported and that no op failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--passes", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    *_, details, result = out.stdout.splitlines()
    return json.loads(details), json.loads(result)


def assert_complete(details: dict, result: dict, metrics: list[dict]) -> None:
    assert details["fail_ratio"] == 0, details["failures"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in metrics:
        assert metric["name"] in result["metrics"], metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_end_to_end_metrics():
    details, result = run(WORKLOADS[0], 0)
    assert_complete(details, result, SPEC["end_to_end"])
    assert all(op["argv"] for op in details["ops"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    details, result = run(workload, 1)
    assert_complete(details, result, SPEC["per_layer"])
    assert set(details["self_time_share"]) == {"directive", "words", "blocks", "powers", "oracle",
                                               "singular", "partition", "checks", "cli"}
