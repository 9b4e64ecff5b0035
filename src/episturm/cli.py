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
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episturm",
        description="Construct episturmian words from directive exponents and enumerate their powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, full=False, verify=False):
        p.add_argument("--spec", required=True, help='directive, e.g. "k=3; d=1,1,2; 2,1,2" or "k=3; d=; 1"')
        p.add_argument("--json", action="store_true", help="emit JSON lines instead of text")
        if n:
            p.add_argument("--n", type=int, help="block level")
        if full:
            p.add_argument("--full", action="store_true", help="expand words and witness sets in full")
        if verify:
            p.add_argument("--verify", action="store_true", help="cross-check against the scanning oracle")

    p = sub.add_parser("generate", help="print a prefix of the word")
    common(p)
    p.add_argument("--length", type=int, required=True, help="how many letters")

    p = sub.add_parser("blocks", help="block, palindromic prefix, tails and indices at one level")
    common(p, n=True, full=True)

    p = sub.add_parser("singular", help="factor partition classes at one level")
    common(p, n=True, full=True)

    p = sub.add_parser("partition", help="tiling of a block by the level-n window blocks")
    common(p, n=True)
    p.add_argument("--verify", action="store_true", help="check that splitting each level-(n+1) tile one level down gives this tiling")
    p.add_argument("--m", type=int, help="host block level to tile (default: two above --n)")

    p = sub.add_parser("index", help="prefix and block indices with witnesses")
    common(p, n=True, verify=True)
    p.add_argument("--all-up-to", type=int, help="report levels 1..N")

    p = sub.add_parser("census", help="which words of a given length have an l-th power in the word")
    common(p, full=True, verify=True)
    p.add_argument("--m", type=int, help="single base length")
    p.add_argument("--all-up-to", type=int, help="all base lengths 1..N")
    p.add_argument("--l", type=int, default=2, help="power order (default 2)")

    p = sub.add_parser("verify", help="run the whole invariant battery")
    common(p, n=True)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
