"""Directive sequences and the iterated palindromic-closure construction.

Expanding each exponent entry of a directive spec (`spec`) to that many
copies of its letter yields an infinite (or finite, when no period is given)
sequence of single letters; iterated palindromic closure driven by that
sequence builds the word this whole package studies. The closure is the
oracle's construction route: no closed form imports this module.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from functools import lru_cache

from .errors import RangeError
from .spec import DirectiveSpec, exponent  # bound at run time: callers also import both from this module
from .words import Word, longest_palindromic_suffix


@lru_cache(maxsize=None)
def _sums(spec: DirectiveSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pre_sums = [0]
    for d in spec.preperiod:
        pre_sums.append(pre_sums[-1] + d)
    per_sums = [0]
    for d in spec.period:
        per_sums.append(per_sums[-1] + d)
    return tuple(pre_sums), tuple(per_sums)


def exponent_sum(spec: DirectiveSpec, n: int) -> int:
    """Total of the first n exponents (0 for n = 0)."""
    if n < 0:
        raise RangeError("exponent count must be nonnegative")
    pre_sums, per_sums = _sums(spec)
    if n < len(pre_sums):
        return pre_sums[n]
    if not spec.period:
        raise RangeError(f"directive is finite with {len(spec.preperiod)} exponents; cannot sum {n}")
    extra = n - len(spec.preperiod)
    cycles, rest = divmod(extra, len(spec.period))
    return pre_sums[-1] + cycles * per_sums[-1] + per_sums[rest]


def block_letter(spec: DirectiveSpec, i: int) -> str:
    """The letter carried by the i-th exponent entry."""
    if i < 1:
        raise RangeError(f"entry index {i} must be >= 1")
    return spec.alphabet[(i - 1) % spec.k]


def _entry_of_position(spec: DirectiveSpec, i: int) -> int:
    """Index of the exponent entry covering position i of the expanded letter sequence."""
    if i < 1:
        raise RangeError(f"letter position {i} must be >= 1")
    # each exponent is >= 1, so the entry index never exceeds the position, nor a finite directive's entry count
    lo, hi = 1, i if spec.period else len(spec.preperiod)
    if exponent_sum(spec, hi) < i:
        raise RangeError(f"directive is finite with {exponent_sum(spec, hi)} letters; position {i} is past its end")
    while lo < hi:
        mid = (lo + hi) // 2
        if exponent_sum(spec, mid) >= i:
            hi = mid
        else:
            lo = mid + 1
    return lo


def directive_letter(spec: DirectiveSpec, i: int) -> str:
    """The i-th letter of the expanded directive sequence (1-based)."""
    return block_letter(spec, _entry_of_position(spec, i))


def previous_same_letter(spec: DirectiveSpec, i: int) -> int | None:
    """Largest position j < i whose directive letter equals the one at i; None when absent."""
    b = _entry_of_position(spec, i)
    if i > exponent_sum(spec, b - 1) + 1:
        return i - 1
    if b > spec.k:
        return exponent_sum(spec, b - spec.k)
    return None


def next_same_letter(spec: DirectiveSpec, i: int) -> int:
    """Smallest position j > i whose directive letter equals the one at i."""
    b = _entry_of_position(spec, i)
    if i < exponent_sum(spec, b):
        return i + 1
    return exponent_sum(spec, b + spec.k - 1) + 1


def palindromic_closure(w: Word) -> Word:
    """Shortest palindrome that has w as a prefix: w followed by the mirror of what precedes its longest palindromic suffix."""
    return w + w[:len(w) - longest_palindromic_suffix(w)][::-1]


def morphism(a: str, w: Word, times: int = 1) -> Word:
    """Image of w under the map fixing a and sending any other letter x to a+x, applied `times` times (x goes to a^times x)."""
    if len(a) != 1:
        raise RangeError("morphism seed must be a single letter")
    run = a * times
    for c in set(w) - {a}:  # each pass inserts only a's, which no later pass replaces
        w = w.replace(c, run + c)
    return w


def prefix_increment(spec: DirectiveSpec, n: int) -> Word:
    """Word prepended to the n-th closure prefix to obtain the next one, built morphically.

    Equals the image of directive letter n+1 under the composed morphisms of
    the first n directive letters; the closure table satisfies
    prefix(j+1) == prefix_increment(spec, j-1) + prefix(j) for j >= 1. A run
    of one letter composes as one power of its morphism.
    """
    if n < 0:
        raise RangeError("increment level must be >= 0")
    runs: list[tuple[str, int]] = []  # directive letters 1..n as (letter, run length)
    entry, left = 1, n
    while left:
        take = min(exponent(spec, entry), left)
        runs.append((block_letter(spec, entry), take))
        left -= take
        entry += 1
    w = directive_letter(spec, n + 1)
    for a, times in reversed(runs):
        w = morphism(a, w, times)
    return w


def entry_increments(spec: DirectiveSpec) -> Iterator[Word]:
    """prefix_increment(spec, exponent_sum(spec, n)) for n = 0, 1, ..., each composed one entry past the last.

    With f the composed morphisms of the letters read so far, entry i, a run of e copies of a, sends every
    letter x != a to a^e x: f(x) gains f(a)^e in front, f(a) stays, and the increment is f(a). What goes in
    front is shared by every letter, so it is kept once, newest first, in `front`; a letter's image is the
    part of `front` laid since its own last entry, then its image at that entry. Past the end of a finite
    directive, `exponent` raises RangeError.
    """
    front = ""
    since: dict[str, tuple[int, Word]] = {}  # letter -> (len(front) after its last entry, its image then)
    entry = 1
    while True:
        a, times = block_letter(spec, entry), exponent(spec, entry)
        mark, image = since.get(a, (0, a))
        image = front[:len(front) - mark] + image
        yield image
        front = image * times + front
        since[a] = (len(front), image)
        entry += 1


class PalindromicPrefixTable:
    """Cache of the iterated-closure prefixes; prefix(1) is empty, each step closes one more directive letter."""

    def __init__(self, spec: DirectiveSpec):
        self._spec = spec
        self._prefixes: list[Word] = [""]
        self._lock = threading.RLock()

    def prefix(self, j: int) -> Word:
        """The j-th palindromic prefix (j >= 1)."""
        if j < 1:
            raise RangeError(f"closure index {j} must be >= 1")
        with self._lock:
            while len(self._prefixes) < j:
                x = directive_letter(self._spec, len(self._prefixes))
                self._prefixes.append(palindromic_closure(self._prefixes[-1] + x))
            return self._prefixes[j - 1]

    def prefix_of_length(self, length: int) -> Word:
        """Shortest closure prefix of length >= length (RangeError on a finite directive that runs out)."""
        if length < 0:
            raise RangeError("length must be nonnegative")
        j = 1
        while len(self.prefix(j)) < length:
            j += 1
        return self.prefix(j)


def closure_lengths(spec: DirectiveSpec) -> Iterator[int]:
    """|u_1|, |u_2|, ...: the lengths of the closure prefixes, from integers alone (a finite directive stops at its end).

    Closing u_j with a letter last closed at step p gives 2|u_j| - |u_p|
    letters; with a letter not closed before, 2|u_j| + 1.
    """
    before: dict[str, int] = {}  # letter -> |u_p| for the last step p that closed it
    u = 0
    yield u
    entry = 1
    while entry <= len(spec.preperiod) or spec.period:
        letter = block_letter(spec, entry)
        for _ in range(exponent(spec, entry)):
            grown = 2 * u - before[letter] if letter in before else 2 * u + 1
            before[letter] = u
            u = grown
            yield u
        entry += 1


# Letters a closure cross-check may scan: a long run of one directive letter
# makes that quadratic in the prefix (`k=2; d=20000; 1` scans 2.0e8 letters for
# 20,000). The reference directives need under 5e4 at 20,000 letters.
CLOSURE_CHECK_WORK = 1 << 20


def closure_reach(spec: DirectiveSpec, work: int) -> int | float:
    """The longest prefix the closure builds while its steps scan at most `work` letters.

    Building L letters closes every prefix u_j shorter than L, scanning |u_j|
    letters each, so a long run of one letter costs quadratic work for linear
    output. That work never falls as L grows: it is at most `work` exactly when
    L <= closure_reach(spec, work). A finite directive whose whole closure fits
    leaves every length in reach (math.inf); past its end the closure raises.
    """
    scanned = 0
    for u in closure_lengths(spec):
        scanned += u
        if scanned > work:
            return u
    return math.inf


def closure_prefix(spec: DirectiveSpec, length: int) -> Word:
    """Exactly the first `length` letters, built by iterated palindromic closure alone.

    Only the prefix being closed is kept, so memory follows the output, not the closure work.
    """
    if length < 0:
        raise RangeError("length must be nonnegative")
    u, j = "", 1
    while len(u) < length:
        u = palindromic_closure(u + directive_letter(spec, j))
        j += 1
    return u[:length]
