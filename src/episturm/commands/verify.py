"""`verify`: the whole invariant battery, one row per check."""

from __future__ import annotations

from ..checks import run_battery
from ..errors import GuardExceeded, RangeError, VerificationError
from ..spec import DirectiveSpec
from . import Reporter, build_table

# Block n + 2 is the battery's largest word. At the guard a verify child takes
# at most about 0.9 s and 174 MB (Fibonacci --n 33, 24.2M letters; Tribonacci
# --n 26, 29.2M letters, 0.6 s and 137 MB) on a 2-CPU x86-64 VM (Python 3.11).
_BATTERY_LETTER_GUARD = 1 << 25


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    table = build_table(spec, args.level_guard)
    n_max = args.n if args.n is not None else 8
    if n_max < 0:
        raise RangeError(f"battery level must be >= 0 (got {n_max})")
    letters = table.block_length(n_max + 2)
    if letters > _BATTERY_LETTER_GUARD:
        raise GuardExceeded(
            f"battery to level {n_max} builds block {n_max + 2}: {letters} letters, above the guard {_BATTERY_LETTER_GUARD}"
        )
    failures = 0
    for name, error in run_battery(table, n_max):
        ok = error is None
        failures += 0 if ok else 1
        rep.row(
            "check",
            {"name": name, "ok": ok, "detail": None if ok else str(error)},
            f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {error}"),
        )
    rep.row(
        "verify-summary",
        {"n_max": n_max, "failures": failures},
        f"battery up to level {n_max}: {'all checks pass' if failures == 0 else f'{failures} checks FAILED'}",
    )
    if failures:
        raise VerificationError(f"{failures} invariant checks failed")
    return 0
