"""Primitive operations on finite words.

Words are plain strings; letters are single characters. Every operation is
pure and returns new strings.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, repeat
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .errors import CancellationError, GuardExceeded, RangeError

if TYPE_CHECKING:  # imported inside as_fraction: only comparisons and verifications read the value
    from fractions import Fraction

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


# The factor count keys windows mod the Mersenne prime 2^61 - 1 in Python ints,
# at most `_COUNT_BATCH` (or the factor length) windows at a time.
_COUNT_BATCH = 1 << 12
_FACTOR_MODULUS = (1 << 61) - 1
_FACTOR_BASE = 1_000_003


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


def _palindromic_prefix_progressions(w: Word) -> list[tuple[int, int, int]]:
    """The lengths p >= 1 with w[:p] a palindrome, as (largest, step, smallest) progressions, longest first.

    They are P, the longest, and the borders of P, since a prefix of a palindrome is one exactly when it is
    a border. A palindrome of L letters has its longest proper border b = its longest palindromic suffix
    after the first letter, and least period d = L - b; by Fine and Wilf its borders of at least d letters
    are exactly L - jd, and the shorter ones are the proper borders of the smallest of those. The next
    largest is below d and below L/2, so there are at most floor(log2 |w|) + 1 progressions.
    """
    progressions, top = [], longest_palindromic_suffix(w[::-1])
    while top:
        step = top - longest_palindromic_suffix(w[1:top])
        low = step + top % step  # the smallest member of at least step letters: top itself when b < d
        progressions.append((top, step, low))
        top = top - step if low == top else longest_palindromic_suffix(w[1:low])
    return progressions


def two_palindrome_splits(w: Word) -> list[int]:
    """Every p in 0..|w|-1 with w[:p] and w[p:] both palindromes: w[:p] is a palindromic prefix, w[p:] reversed one of w[::-1]."""
    n = len(w)
    prefixes = {0}.union(*(range(low, top + 1, step) for top, step, low in _palindromic_prefix_progressions(w)))
    return sorted(n - q for top, step, low in _palindromic_prefix_progressions(w[::-1])
                  for q in range(low, top + 1, step) if n - q in prefixes)


def count_factors(words, length: int, enough: int, budget: int) -> tuple[int, int]:
    """(distinct keys of the length-`length` factors counted, end of the shortest prefix holding them).

    `words` yields ever longer prefixes of one word; each is read on from where
    the one before stopped. A factor's key is its polynomial hash
    sum_t w[i+t] B^(length-1-t) mod the Mersenne prime 2^61 - 1, rolled from
    window to window in pure Python; equal factors get equal keys, so a
    collision can only lower the count. Windows are keyed max(2^12, length) at
    a time, in order, each batch encoding only the letters it reads; counting
    stops after the batch that brings it to `enough`. At most `budget` windows
    are read: the batch that reaches it is cut there, and needing one more
    raises GuardExceeded.
    """
    modulus, base = _FACTOR_MODULUS, _FACTOR_BASE
    drop = modulus - pow(base, length, modulus)  # adding drop * w[i] removes w[i] from the window after it

    def roll(key: int, change: int) -> int:
        return (key * base + change) % modulus

    width = max(_COUNT_BATCH, length)  # the most windows in one batch
    seen: set[int] = set()
    lo, latest = 0, None  # latest: (start, keys, new keys) of the last batch that found a factor
    for w in words:
        while len(seen) < enough and lo <= len(w) - length:
            size = min(width, len(w) - length + 1 - lo, budget - lo)
            if size <= 0:
                raise GuardExceeded(f"counting the factors of length {length} reads more than the budget of {budget} windows")
            codes = memoryview(w[lo:lo + size + length - 1].encode("utf-32-le")).cast("I")
            # window i + 1 keys B * key(i) - B^length w[i] + w[i + length]; the batch before left key(lo - 1) and w[lo - 1]
            first = roll(keys[-1], drop * leaving + codes[length - 1]) if lo else reduce(roll, codes[:length], 0)
            keys = list(accumulate(map(add, map(mul, codes[:size - 1], repeat(drop)), codes[length:]), roll, initial=first))
            new = set(keys)
            new -= seen
            if new:
                seen |= new
                latest = lo, keys, new
            leaving = codes[size - 1]
            lo += size
        if len(seen) >= enough:
            break
    if latest is None:
        return 0, 0
    start, keys, new = latest
    # the factor met last is the new key whose first occurrence comes last
    last = next(filter(new.__contains__, reversed(dict.fromkeys(keys))))
    return len(seen), start + keys.index(last) + length


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
        from fractions import Fraction  # only comparisons and --verify read the value, so a plain start skips the import

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
