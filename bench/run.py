"""episturm benchmark: CLI invocations as a user runs them, checked and timed.

    python3 bench/run.py --workload verified-census --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is taken from `src/` next
to this directory. With `--trace 0` every op runs as a fresh
`python -m episturm.cli ... --json` child, one at a time (closed loop, one
client), for five passes over the op list, with a fixed calibration child
before and after each one; the last stdout line reports the end-to-end
metrics, in seconds scaled by the calibration (see calibrate). With `--trace 1` the same ops run in-process through
`episturm.cli.main(argv)`, once untraced and once with the per-layer tracer
installed; the last line reports the per-layer metrics. Either way every
op's output is checked (see check.py). A JSON line before the result holds
the environment, each op's argv and the details behind the metrics; spans go
to `.bench_out/` in the checkout.

`--record-reference` rewrites `reference.json` from the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

PASSES = 5  # untraced passes over the op list; wall_s is their median (see ops.WORKLOADS)
SETUP_PER_PASS = 1  # fresh interpreters timed for setup_s before each pass; the median is reported
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops beyond it
OP_LIMIT_S = 30  # a child still running after this is killed and counted as failed
DEADLINE_S = 130  # no op starts after this many seconds, so a run on a crawling machine ends within 180 s
CALIBRATION = "total = 0\nfor i in range(100_000):\n    total += i * i % 7\n"
CAL_REF_S = 0.06  # calibration time that defines a reference second (see calibrate)
SMOKE_SECONDS = 1  # the run length the smoke test uses; its ops are in reference.json too


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "EPISTURM_GUARD"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], out_path: Path | None = None) -> tuple[float, float, int]:
    """Run one child with stdout in out_path (or discarded): (wall seconds, max RSS in MB, exit code)."""
    with open(out_path or os.devnull, "wb") as out, open(os.devnull, "wb") as null:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(), file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, null.fileno(), 2)])
        killer = threading.Timer(OP_LIMIT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def measure_setup() -> tuple[float, float, int]:
    """A fresh interpreter that imports episturm.cli, as run_child reports it."""
    return run_child(["-c", "import episturm.cli"])


def calibrate() -> float:
    """Seconds for a fresh interpreter to run a fixed loop that shares no code with episturm.

    This machine is a few cores of a shared host. Other tenants change how
    fast a fresh process computes by up to 1.6x, in spells of a few seconds
    to minutes, and this loop slows with the ops when they do. Every child is
    timed between two runs of it, and its time is scaled to a machine on which
    the loop takes CAL_REF_S.
    """
    return run_child(["-c", CALIBRATION])[0]


class ScaledClock:
    """Times children in reference seconds: raw seconds x CAL_REF_S / the mean of the loops around the child."""

    def __init__(self) -> None:
        calibrate()  # warm-up
        self.last = calibrate()
        self.loops = [self.last]

    def time(self, run):
        """(reference seconds, raw seconds, run's other results) of run(), which returns (raw seconds, ...)."""
        raw, *rest = run()
        after = calibrate()
        scale = 2 * CAL_REF_S / (self.last + after)
        self.last = after
        self.loops.append(after)
        return raw * scale, raw, rest


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def pass_walls(per_op: list[list[float]]) -> list[float]:
    """Wall time of each complete pass: the sum of its ops' times."""
    return [sum(op_times[p] for op_times in per_op) for p in range(min(map(len, per_op)))]


def untraced_run(ops, checker, passes: int) -> tuple[dict, dict, list]:
    """Passes of child processes: end-to-end metrics, details, failures."""
    clock = ScaledClock()
    setup, setup_raw = [], []
    per_op = [[] for _ in ops]
    per_op_raw = [[] for _ in ops]
    peak, failures = 0.0, []
    out_path = OUT / f"op-{os.getpid()}.out"  # per process, so concurrent runs cannot mix outputs
    for p in range(passes):
        if time.perf_counter() - STARTED < DEADLINE_S:
            for _ in range(SETUP_PER_PASS):
                seconds, raw, _ = clock.time(measure_setup)
                setup.append(seconds)
                setup_raw.append(raw)
        for i, op in enumerate(ops):
            if time.perf_counter() - STARTED > DEADLINE_S:
                failures.append({"pass": p, "op": i, "argv": list(op.argv), "problems": [f"not run: past {DEADLINE_S} s"]})
                continue
            seconds, raw, (rss, rc) = clock.time(
                lambda: run_child(["-m", "episturm.cli", *op.argv, "--json"], out_path))
            per_op[i].append(seconds)
            per_op_raw[i].append(raw)
            peak = max(peak, rss)
            problems = checker.problems(op, rc, out_path.read_text())
            if problems:
                failures.append({"pass": p, "op": i, "argv": list(op.argv), "problems": problems})
    # Scaling takes out the speed swings of the shared host; medians over all
    # passes ride out what is left.
    walls = pass_walls(per_op)
    samples = [t for op_times in per_op for t in op_times]
    tail_value, tail_pct = tail(samples)
    out_path.unlink(missing_ok=True)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    raw_walls = pass_walls(per_op_raw)
    details = {
        "calibration": {"reference_s": CAL_REF_S, "median_s": statistics.median(clock.loops),
                        "loops": len(clock.loops)},
        "pass_walls_s": walls,
        "op_tail": {"percentile": round(tail_pct, 2), "ops": len(samples), "beyond": TAIL_BEYOND},
        "op_times_s": per_op,
        "unscaled": {"wall_s": statistics.median(raw_walls),
                     "op_p50_s": statistics.median(t for op_times in per_op_raw for t in op_times),
                     "setup_s": statistics.median(setup_raw),
                     "pass_walls_s": raw_walls, "op_times_s": per_op_raw},
    }
    return metrics, details, failures


def in_process(ops, checker, tracer=None) -> tuple[float, list, list[str]]:
    """One in-process pass through episturm.cli.main: (seconds spent in ops, failures, outputs)."""
    from episturm import cli

    spent, failures, outputs = 0.0, [], []
    for i, op in enumerate(ops):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main([*op.argv, "--json"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            spent += time.perf_counter() - start
        stdout = buf.getvalue()
        outputs.append(stdout)
        if tracer is not None:
            tracer.end_op(stdout)
        problems = checker.problems(op, rc, stdout)
        if problems:
            failures.append({"op": i, "argv": list(op.argv), "problems": problems})
    return spent, failures, outputs


def traced_run(ops, checker, workload: str, seed: int) -> tuple[dict, dict, list]:
    """Untraced then traced in-process pass: per-layer metrics, details, failures."""
    from layers import Tracer

    # untraced passes on both sides of the traced one, so warm-up costs fall on neither alone
    before, failures, _ = in_process(ops, checker)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_failures, _ = in_process(ops, checker, tracer)
    finally:
        tracer.uninstall()
    after, _, _ = in_process(ops, checker)
    plain = (before + after) / 2
    failures += traced_failures
    values = tracer.metrics()
    values["trace.overhead_s"] = traced - plain
    metrics = {name: (value, "s" if name.endswith("_s") else "count") for name, value in values.items()}
    span_path = OUT / f"spans-{workload}-{seed}.tsv"
    with open(span_path, "w") as out:
        out.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in tracer.spans:
            out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
    details = {
        "untraced_s": plain,
        "traced_s": traced,
        "self_time_share": tracer.layer_shares(),
        "spans": len(tracer.spans),
        "span_file": str(span_path.relative_to(ROOT)),
    }
    return metrics, details, failures


def environment(seed: int) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


def record_reference(ops_module) -> None:
    """Write the answers of every default-seed op, run in-process, to reference.json."""
    from check import Checker, answers

    checker = Checker(SRC / "episturm" / "report.schema.json", {})
    reference = {}
    for workload in ops_module.WORKLOADS:
        for seconds in (ops_module.BASE_SECONDS, SMOKE_SECONDS):
            ops = ops_module.generate(workload, ops_module.DEFAULT_SEED, seconds)
            _, failures, outputs = in_process(ops, checker)
            if failures:
                raise SystemExit(f"cannot record a reference from failing ops: {failures}")
            for op, stdout in zip(ops, outputs):
                reference[op.key()] = answers(checker.rows(stdout))
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} ops in {REFERENCE.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="verified-census")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=PASSES, help="untraced passes (the smoke test uses fewer)")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not (SRC / "episturm" / "cli.py").is_file():
        print(f"episturm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ops as ops_module
    from check import Checker

    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        record_reference(ops_module)
        return 0
    if args.workload not in ops_module.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(ops_module.WORKLOADS)}")
    seed = ops_module.DEFAULT_SEED if args.seed is None else args.seed
    ops = ops_module.generate(args.workload, seed, args.seconds)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    checker = Checker(SRC / "episturm" / "report.schema.json", reference)

    if args.trace:
        metrics, details, failures = traced_run(ops, checker, args.workload, seed)
        attempted = len(ops)
    else:
        metrics, details, failures = untraced_run(ops, checker, args.passes)
        attempted = args.passes * len(ops)
    failed = len({(f.get("pass", 0), f["op"]) for f in failures})
    print(json.dumps({
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(seed),
        "ops": [{"argv": list(op.argv), "expect_rc": op.expect_rc, "est_s": round(op.est_s, 4),
                 "est_mb": round(op.est_mb, 1)} for op in ops],
        "fail_ratio": failed / attempted,
        "failures": failures,
        "reference_ops": sum(op.key() in reference for op in ops),
        "excluded": list(ops_module.EXCLUDED),
        **details,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
