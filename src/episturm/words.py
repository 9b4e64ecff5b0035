"""Primitive operations on finite words.

Words are plain strings; letters are single characters. Every operation is
pure and returns new strings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import CancellationError, RangeError, shorten

if TYPE_CHECKING:  # imported inside as_fraction, the one reader of the value as a Fraction
    from fractions import Fraction

Word = str


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


def longest_palindromic_suffix(w: Word) -> int:
    """Length of the longest palindromic suffix of w (0 only for the empty word), by halving mirror probes.

    With r = w[::-1], q runs n, ceil(n/2), ... 1, and w.find(r[:q], n - q_prev + 1) reaches the starts s
    whose suffix has q to q_prev - 1 <= 2q - 1 letters, all covered by its first q and last q: so w[s:] is a
    palindrome exactly when its first q letters equal r[:q], the mirror of its last q. The first hit is the
    answer, with no hash and no second comparison: O(q) letters a probe, O(n) over at most ceil(log2 n) + 1.
    """
    n, r, q, lo = len(w), w[::-1], len(w), 0
    while q and (s := w.find(r[:q], lo)) == -1:  # q = 1 always hits: the last letter mirrors itself
        lo, q = n - q + 1, (q + 1) // 2
    return n - s if q else 0


# No caller in the package: the tests' reference for the palindrome finder, and a name bench/layers.py traces.
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


class _IndexFields(NamedTuple):
    whole: int
    num: int
    den: int


class RationalIndex(_IndexFields):
    """Exponent of a fractional power: whole + num/den, normalized to 0 <= num < den.

    den is kept as given (the base word's length), never reduced, so two
    indices over the same base compare field by field.
    """

    __slots__ = ()

    def __new__(cls, whole: int, num: int, den: int) -> "RationalIndex":
        if den < 1:
            raise RangeError("denominator must be positive")
        carry, num = divmod(num, den)
        return super().__new__(cls, whole + carry, num, den)

    @classmethod
    def _make(cls, fields) -> "RationalIndex":  # through __new__, so _replace normalizes too
        return cls(*fields)

    def as_fraction(self) -> Fraction:
        from fractions import Fraction  # no comparison reads it, so no CLI start imports fractions

        return self.whole + Fraction(self.num, self.den)

    @property
    def length(self) -> int:
        """Letters in the power of a length-den base with this exponent."""
        return self.whole * self.den + self.num

    def __lt__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.length * other.den < other.length * self.den

    def __le__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.length * other.den <= other.length * self.den

    def __gt__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.length * other.den > other.length * self.den

    def __ge__(self, other: "RationalIndex"):
        if not isinstance(other, RationalIndex):
            return NotImplemented
        return self.length * other.den >= other.length * self.den

    def __str__(self) -> str:
        if self.num == 0:
            return str(self.whole)
        return f"{self.whole} + {self.num}/{self.den}"
