"""Command-line front end: construct, inspect, partition, census, and verify.

Text output is one deterministic line per row; --json switches to JSON lines
carrying the same data (schema in report.schema.json next to this module).
Exit codes: 0 success, 2 usage or parse problem, 3 verification mismatch,
4 resource guard, 1 when stdout closes before the output ends (with nothing
on stderr). EPISTURM_GUARD overrides the block-level guard.

This module only parses and dispatches: each subcommand's handler is a module
of `episturm.commands`, imported once the arguments name it and --spec parses,
and handed the parsed spec, so a start compiles only that handler and the
modules it calls, and a refused directive compiles no handler at all.

One option table, `_COMMANDS`, is the grammar. A well-formed command line is
read straight from it; argparse, built from the same table, loads only for
help and malformed arguments, so those keep argparse's own messages and exit
codes.

The process entry is `entry()`: `python -m episturm.cli` and the `episturm`
console script both run it. It ends the process with `sys.exit(main())` and
freezes the heap on the way out (`gc.freeze`), so the interpreter's
exit-time collection skips the module and class cycles that the OS takes
back with the process anyway; flushing, `atexit` and the exit code are
untouched. `main(argv)` itself never freezes, so a library caller keeps its
collector as it was.
"""

from __future__ import annotations

import gc
import importlib
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .commands import Reporter
from .errors import (
    CancellationError,
    GuardExceeded,
    InvariantViolation,
    NotAFactorError,
    ParseError,
    RangeError,
    VerificationError,
)

if TYPE_CHECKING:
    import argparse

_USAGE_ERRORS = (ParseError, RangeError, CancellationError, NotAFactorError)
_VERIFY_ERRORS = (VerificationError, InvariantViolation)


def _level_guard() -> int | None:
    """The block-level guard EPISTURM_GUARD sets, None when it is unset."""
    raw = os.environ.get("EPISTURM_GUARD")
    if raw is None:
        return None
    try:
        level_guard = int(raw)
    except ValueError:
        raise ParseError(f"EPISTURM_GUARD must be an integer (got {raw!r})")
    if level_guard < 1:
        raise RangeError(f"EPISTURM_GUARD must be >= 1 (got {level_guard})")
    return level_guard


# -- argument plumbing ---------------------------------------------------------

_SPEC = ("--spec", str, True, None, 'directive, e.g. "k=3; d=1,1,2; 2,1,2" or "k=3; d=; 1"')
_JSON = ("--json", bool, False, False, "emit JSON lines instead of text")
_N = ("--n", int, False, None, "block level")
_FULL = ("--full", bool, False, False, "expand words and witness sets in full")
_VERIFY = ("--verify", bool, False, False, "cross-check against the scanning oracle")

# The grammar: subcommand -> (help, options). An option is (flag, kind,
# required, default, help), its kind int, str or bool for a switch; both
# parsers below read it, and argparse lists the options in this order.
_COMMANDS = {
    "generate": ("print a prefix of the word", (_SPEC, _JSON, ("--length", int, True, None, "how many letters"))),
    "blocks": ("block, palindromic prefix, tails and indices at one level", (_SPEC, _JSON, _N, _FULL)),
    "singular": ("factor partition classes at one level", (_SPEC, _JSON, _N, _FULL)),
    "partition": ("tiling of a block by the level-n window blocks", (
        _SPEC, _JSON, _N,
        ("--verify", bool, False, False, "check that splitting each level-(n+1) tile one level down gives this tiling"),
        ("--m", int, False, None, "host block level to tile (default: two above --n)"),
    )),
    "index": ("prefix and block indices with witnesses", (
        _SPEC, _JSON, _N, _VERIFY, ("--all-up-to", int, False, None, "report levels 1..N"),
    )),
    "census": ("which words of a given length have an l-th power in the word", (
        _SPEC, _JSON, _FULL, _VERIFY,
        ("--m", int, False, None, "single base length"),
        ("--all-up-to", int, False, None, "all base lengths 1..N"),
        ("--l", int, False, 2, "power order (default 2)"),
    )),
    "verify": ("run the whole invariant battery", (_SPEC, _JSON, _N)),
}


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for the plain grammar, or None for anything else.

    Served: the subcommand, then its flags by their exact names in any order,
    each value the token after its flag, the last of a repeated flag winning.
    Declined, for argparse to answer: help, an unknown token, `--flag=value`,
    an abbreviation, a value starting with "-", a bad int, a missing required
    flag.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    kinds = {flag: kind for flag, kind, _, _, _ in options}
    values = {flag: default for flag, _, _, default, _ in options}
    tokens = iter(argv[1:])
    for flag in tokens:
        kind = kinds.get(flag)
        if kind is None:
            return None
        if kind is bool:
            values[flag] = True
            continue
        value = next(tokens, "-")  # a flag with no value left is declined like a value starting with "-"
        if value.startswith("-"):
            return None
        try:
            values[flag] = kind(value)
        except ValueError:
            return None
    if any(required and values[flag] is None for flag, _, required, _, _ in options):
        return None
    return SimpleNamespace(command=argv[0], **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def _parser() -> argparse.ArgumentParser:
    """The argparse parser of the same grammar: it answers help and every argv _parse declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="episturm",
        description="Construct episturmian words from directive exponents and enumerate their powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for flag, kind, required, default, option_help in options:
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            p.add_argument(flag, required=required, default=default, help=option_help, **how)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv) or _parser().parse_args(argv)
    try:
        code = _run(args, Reporter(args.command, args.spec, args.json))
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
    except BrokenPipeError:
        # Python's recipe for a reader that stopped early: the flush at exit writes to devnull, with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(args, rep: Reporter) -> int:
    try:
        if args.command in ("blocks", "singular", "partition") and args.n is None:
            raise ParseError(f"{args.command} needs --n")
        args.level_guard = _level_guard()
        from .spec import DirectiveSpec  # every handler loads it; importing the CLI alone loads no math module
        spec = DirectiveSpec.parse(args.spec)  # before the handler, so a refused directive compiles none of it
        code = importlib.import_module(f"{__package__}.commands.{args.command}").run(args, spec, rep)
        rep.status(True)
        return code
    except _USAGE_ERRORS as exc:
        rep.status(False, str(exc))
        return 2
    except _VERIFY_ERRORS as exc:
        rep.status(False, str(exc))
        return 3
    except GuardExceeded as exc:
        rep.status(False, str(exc))
        return 4


def entry() -> None:
    """The process entry: exit with main()'s code, leaving the heap frozen for finalization to skip."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
