"""`generate`: a prefix of the word, built by iterated palindromic closure."""

from __future__ import annotations

from ..directive import closure_prefix, closure_reach
from ..errors import GuardExceeded, RangeError
from ..spec import DirectiveSpec
from . import Reporter

# The guard bounds the letters the closure steps scan, |u_j| summed over the steps
# from the integer length recurrence, not the letters printed: a long run of one
# letter makes that sum quadratic in the output. At 2^25 letters a child takes 0.38 s
# and 69 MB on the Tribonacci word (19M letters out, to a file), 0.32 s and 15 MB on
# `k=2; d=8000; 1` (16,000): medians of 4 on a 2-CPU x86-64 VM (Python 3.11).
_GENERATE_GUARD = 1 << 25


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    if args.length < 0:
        raise RangeError(f"length must be >= 0 (got {args.length})")
    if args.length > closure_reach(spec, _GENERATE_GUARD):
        raise GuardExceeded(f"length {args.length}: the closure steps scan more than the guard of {_GENERATE_GUARD} letters")
    word = closure_prefix(spec, args.length)
    rep.row("prefix", {"length": len(word), "word": word}, word if word else None)
    return 0
