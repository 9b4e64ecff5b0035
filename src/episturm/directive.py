"""Directive sequences and the iterated palindromic-closure construction.

A directive is a list of positive exponents cycling through the alphabet:
entry i applies to letter number ((i-1) mod k) + 1. Expanding each entry to
that many copies of its letter yields an infinite (or finite, when no period
is given) sequence of single letters; iterated palindromic closure driven by
that sequence builds the word this whole package studies.
"""

from __future__ import annotations

import math
import string
import threading
from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

from .errors import ParseError, RangeError
from .words import Word, longest_palindromic_suffix

_LETTER_POOL = string.ascii_lowercase


class _SpecFields(NamedTuple):
    alphabet: str
    preperiod: tuple[int, ...]
    period: tuple[int, ...]


class DirectiveSpec(_SpecFields):
    """Alphabet plus the exponent list, split into a leading part and a repeating part.

    An empty period means the exponent list is finite; operations raise
    RangeError when asked to look past its end.
    """

    __slots__ = ()

    def __new__(cls, alphabet: str, preperiod: tuple[int, ...], period: tuple[int, ...]) -> "DirectiveSpec":
        k = len(alphabet)
        if k < 2:
            raise ParseError("need an alphabet of at least 2 letters")
        if k > len(_LETTER_POOL):
            raise ParseError(f"alphabets beyond {len(_LETTER_POOL)} letters are not supported")
        if len(set(alphabet)) != k:
            raise ParseError("alphabet letters must be distinct")
        if not preperiod and not period:
            raise ParseError("directive needs at least one exponent")
        for d in preperiod + period:
            if not isinstance(d, int) or d < 1:
                raise ParseError(f"exponents must be positive integers, got {d!r}")
        return super().__new__(cls, alphabet, preperiod, period)

    @classmethod
    def _make(cls, fields) -> "DirectiveSpec":  # through __new__, so _replace validates too
        return cls(*fields)

    @property
    def k(self) -> int:
        return len(self.alphabet)

    @classmethod
    def make(cls, k: int, preperiod: tuple[int, ...] = (), period: tuple[int, ...] = ()) -> "DirectiveSpec":
        if k < 2 or k > len(_LETTER_POOL):
            raise ParseError(f"alphabet size must be between 2 and {len(_LETTER_POOL)}")
        return cls(_LETTER_POOL[:k], tuple(preperiod), tuple(period))

    @classmethod
    def parse(cls, text: str) -> "DirectiveSpec":
        """Parse 'k=3; d=1,1,2; 2,1,2' (third part, the period, may be omitted)."""
        parts = [p.strip() for p in text.split(";")]
        if len(parts) < 2 or len(parts) > 3:
            raise ParseError(f"expected 'k=<int>; d=<exponents>[; <period>]', got {text!r}")
        head, pre_part = parts[0], parts[1]
        if not head.startswith("k="):
            raise ParseError(f"spec must start with 'k=', got {head!r}")
        try:
            k = int(head[2:])
        except ValueError as exc:
            raise ParseError(f"bad alphabet size in {head!r}") from exc
        if not pre_part.startswith("d="):
            raise ParseError(f"second field must start with 'd=', got {pre_part!r}")

        def ints(chunk: str) -> tuple[int, ...]:
            chunk = chunk.strip()
            if not chunk:
                return ()
            try:
                return tuple(int(x) for x in chunk.split(","))
            except ValueError as exc:
                raise ParseError(f"bad exponent list {chunk!r}") from exc

        preperiod = ints(pre_part[2:])
        period = ints(parts[2]) if len(parts) == 3 else ()
        return cls.make(k, preperiod, period)

    def to_text(self) -> str:
        pre = ",".join(str(d) for d in self.preperiod)
        if not self.period:
            return f"k={self.k}; d={pre}"
        per = ",".join(str(d) for d in self.period)
        return f"k={self.k}; d={pre}; {per}"


def exponent(spec: DirectiveSpec, i: int) -> int:
    """The i-th exponent (1-based)."""
    if i < 1:
        raise RangeError(f"exponent index {i} must be >= 1")
    idx = i - 1
    if idx < len(spec.preperiod):
        return spec.preperiod[idx]
    if not spec.period:
        raise RangeError(f"directive is finite with {len(spec.preperiod)} exponents; index {i} is past its end")
    return spec.period[(idx - len(spec.preperiod)) % len(spec.period)]


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
    return w.translate({ord(c): run + c for c in set(w) if c != a})


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
