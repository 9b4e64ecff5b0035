"""Primitive operations on finite words.

Words are plain strings; letters are single characters. Every operation is
pure and returns new strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CancellationError, RangeError

Word = str


def shorten(w: Word, limit: int = 48) -> str:
    """Compact display form for long words, used in error messages and CLI output."""
    if len(w) <= limit:
        return w
    return f"{w[:limit - 14]}..{w[-8:]}(len {len(w)})"


def reversal(w: Word) -> Word:
    """Mirror image of w."""
    return w[::-1]


def is_palindrome(w: Word) -> bool:
    return w == w[::-1]


def conjugate(w: Word, j: int) -> Word:
    """Rotation of w by j positions: w[j:] + w[:j]."""
    if not w:
        raise RangeError("cannot rotate the empty word")
    if not 0 <= j < len(w):
        raise RangeError(f"rotation offset {j} outside 0..{len(w) - 1}")
    return w[j:] + w[:j]


def conjugacy_class(w: Word) -> list[Word]:
    """Distinct rotations of w, in rotation order starting from w itself."""
    if not w:
        raise RangeError("the empty word has no rotations")
    seen: set[Word] = set()
    out: list[Word] = []
    for j in range(len(w)):
        c = w[j:] + w[:j]
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def is_primitive(w: Word) -> bool:
    """True when w is not a repetition of any shorter word.

    Uses the classic doubling trick: w is a strict power exactly when it
    occurs in w+w at some offset strictly between 0 and |w|.
    """
    if not w:
        raise RangeError("primitivity is undefined for the empty word")
    return (w + w).find(w, 1) == len(w)


def strip_prefix(w: Word, p: Word) -> Word:
    """Remove p from the front of w; the removal must match exactly."""
    if not w.startswith(p):
        raise CancellationError(f"{shorten(p)!r} is not a prefix of {shorten(w)!r}")
    return w[len(p):]


def strip_suffix(w: Word, s: Word) -> Word:
    """Remove s from the end of w; the removal must match exactly."""
    if not w.endswith(s):
        raise CancellationError(f"{shorten(s)!r} is not a suffix of {shorten(w)!r}")
    return w[:len(w) - len(s)]


def factors_of_length(w: Word, n: int) -> set[Word]:
    """All distinct length-n substrings of w (empty set when n > |w|)."""
    if n < 0:
        raise RangeError("factor length must be nonnegative")
    if n == 0:
        return {""}
    return {w[i:i + n] for i in range(len(w) - n + 1)}


def occurrences(text: Word, w: Word) -> list[int]:
    """Start positions of every occurrence of w in text, overlapping ones included."""
    found: list[int] = []
    pos = text.find(w)
    while pos != -1:
        found.append(pos)
        pos = text.find(w, pos + 1)
    return found


def z_array(w: str) -> list[int]:
    """z[i] = length of the longest common prefix of w and w[i:] (z[0] = |w|)."""
    n = len(w)
    z = [0] * n
    if n == 0:
        return z
    z[0] = n
    left = right = 0
    for i in range(1, n):
        if i < right:
            z[i] = min(right - i, z[i - left])
        while i + z[i] < n and w[z[i]] == w[i + z[i]]:
            z[i] += 1
        if i + z[i] > right:
            left, right = i, i + z[i]
    return z


@dataclass(frozen=True)
class RationalIndex:
    """Exponent of a fractional power: whole + num/den, normalized to 0 <= num < den.

    den is kept as given (the base word's length), never reduced, so two
    indices over the same base compare field by field.
    """

    whole: int
    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 1:
            raise RangeError("denominator must be positive")
        if not 0 <= self.num < self.den:
            carry, rem = divmod(self.num, self.den)
            object.__setattr__(self, "whole", self.whole + carry)
            object.__setattr__(self, "num", rem)

    def as_fraction(self) -> Fraction:
        return self.whole + Fraction(self.num, self.den)

    @property
    def length(self) -> int:
        """Letters in the power of a length-den base with this exponent."""
        return self.whole * self.den + self.num

    def __lt__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.as_fraction() < other.as_fraction()

    def __le__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.as_fraction() <= other.as_fraction()

    def __gt__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.as_fraction() > other.as_fraction()

    def __ge__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.as_fraction() >= other.as_fraction()

    def __str__(self) -> str:
        if self.num == 0:
            return str(self.whole)
        return f"{self.whole} + {self.num}/{self.den}"
