"""Run every workload over several seeds, print the figures, and record them in baseline.json.

    python3 bench/baseline.py --seeds 10 --write

For each workload: `--seeds` untraced runs (seeds 1..N), one after the
other, then one traced run at the default seed. baseline.json keeps, per
workload, every run's end-to-end figures, their median and their spread
(distance between the first and third quartile over the median), and the
per-layer figures of the traced run, with the environment that made them.
Later changes compare against these numbers. Without `--write` the
figures are only printed, every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    *_, details, result = out.stdout.splitlines()
    return json.loads(details), json.loads(result)


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    parser.add_argument("--write", action="store_true", help="rewrite baseline.json")
    args = parser.parse_args()

    out = {"command": BENCHMARK["command"], "seconds": args.seconds, "workloads": {}}
    if args.workload and (HERE / "baseline.json").is_file():  # keep the other workloads' figures
        out["workloads"] = json.loads((HERE / "baseline.json").read_text())["workloads"]
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        figures: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in range(1, args.seeds + 1):
            details, result = run(workload, seed, args.seconds, 0)
            out["environment"] = details["environment"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                figures.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            shown = "  ".join(f"{k} {v[-1]:.4f} {units[k]}" for k, v in figures.items())
            print(f"{workload} seed {seed}: fail_ratio {details['fail_ratio']}  {shown}", flush=True)
        details, result = run(workload, 1, args.seconds, 1)
        out["workloads"][workload] = {
            "failed_ops": failed + result["failed"],
            "end_to_end": {name: {"unit": units[name], **summary(values)} for name, values in figures.items()},
            "per_layer": {name: metric["value"] for name, metric in result["metrics"].items()},
            "self_time_share": details["self_time_share"],
        }
        for name, stats in out["workloads"][workload]["end_to_end"].items():
            print(f"  {name:12s} median {stats['median']:.4f} {stats['unit']}  spread {stats['spread']:.4f}")
    out["environment"].pop("seed", None)
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
