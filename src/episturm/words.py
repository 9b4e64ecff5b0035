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

if TYPE_CHECKING:  # imported inside the functions that use them: the closure and the closed forms need neither
    from fractions import Fraction

    import numpy as np

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


# A polynomial hash mod a prime below 2^31 for the split check: a residue times a
# residue or a letter code stays below 2^62, and a sum of fewer than 2^32 residues
# below 2^63, so uint64 never wraps. The chunk bounds the arrays, and the factor
# count's batches too. The count keys windows mod the Mersenne prime 2^61 - 1 in
# Python ints.
_HASH_MODULUS = (1 << 31) - 1
_HASH_BASE = 48271
_HASH_CHUNK = 1 << 12
_FACTOR_MODULUS = (1 << 61) - 1
_FACTOR_BASE = 1_000_003
_power_tables: dict = {}  # (modulus, base) -> B^t for t below its size, as read-only uint64


def _hash_powers(modulus: int, base: int, count: int) -> np.ndarray:
    """B^t mod modulus for t < count, sliced from a table shared by every call, which at least doubles when it grows."""
    import numpy as np

    powers = _power_tables.get((modulus, base), np.ones(1, dtype=np.uint64))
    if len(powers) < count:
        filled = len(powers)
        powers = np.concatenate((powers, np.empty(max(count, 2 * filled) - filled, dtype=np.uint64)))
        while filled < len(powers):
            step = min(filled, len(powers) - filled)
            powers[filled:filled + step] = powers[:step] * np.uint64(pow(base, filled, modulus)) % np.uint64(modulus)
            filled += step
        powers.flags.writeable = False
        _power_tables[(modulus, base)] = powers
    return powers[:count]


def _palindromic_prefix_candidates(w: Word) -> np.ndarray:
    """Lengths p in 1..|w|, ascending, whose prefix w[:p] may be a palindrome: the split check's candidates.

    Every palindromic prefix is listed; a hash collision may add others, so a
    caller verifies each candidate it relies on. With D_j = B^(|w|-1-j), w[:p]
    is a palindrome only if sum_{j<p} w_j B^j * D_{p-1} == sum_{j<p} w_j D_j.
    """
    import numpy as np

    modulus, base, n = _HASH_MODULUS, _HASH_BASE, len(w)
    width = max(1, min(n, _HASH_CHUNK))
    m = np.uint64(modulus)
    powers = _hash_powers(modulus, base, width)
    forward_sum = backward_sum = np.uint64(0)
    found = []
    for start in range(0, n, width):
        codes = np.frombuffer(w[start:start + width].encode("utf-32-le"), dtype="<u4").astype(np.uint64)
        size = len(codes)
        ascending = powers[:size] * np.uint64(pow(base, start, modulus)) % m  # B^j
        descending = powers[size - 1::-1] * np.uint64(pow(base, n - start - size, modulus)) % m  # D_j
        forward = (np.cumsum(codes * ascending % m) + forward_sum) % m
        backward = (np.cumsum(codes * descending % m) + backward_sum) % m
        found.append(np.flatnonzero(forward * descending % m == backward) + (start + 1))
        forward_sum, backward_sum = forward[-1], backward[-1]
    return np.concatenate(found) if found else np.zeros(0, dtype=np.int64)


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


def two_palindrome_splits(w: Word) -> list[int]:
    """Every p in 0..|w|-1 with w[:p] and w[p:] both palindromes, verified letter by letter.

    Only positions where both halves are hash candidates are compared, so a
    word with many palindromic prefixes costs no more than one with few.
    """
    import numpy as np

    n = len(w)
    prefixes = np.concatenate(([0], _palindromic_prefix_candidates(w)))
    suffix_starts = n - _palindromic_prefix_candidates(w[::-1])
    both = np.intersect1d(prefixes, suffix_starts).tolist()
    return [p for p in both if is_palindrome(w[:p]) and is_palindrome(w[p:])]


def count_factors(words, length: int, enough: int, budget: int) -> tuple[int, int]:
    """(distinct keys of the length-`length` factors counted, end of the shortest prefix holding them).

    `words` yields ever longer prefixes of one word; each is read on from where
    the one before stopped. A factor's key is its polynomial hash
    sum_t w[i+t] B^(length-1-t) mod the Mersenne prime 2^61 - 1, rolled from
    window to window in pure Python; equal factors get equal keys, so a
    collision can only lower the count. Windows are keyed max(2^12, length) at
    a time, in order, each batch encoding only the letters it reads; counting
    stops after the batch that brings it to `enough`, and one that would pass
    `budget` windows raises GuardExceeded.
    """
    modulus, base = _FACTOR_MODULUS, _FACTOR_BASE
    drop = modulus - pow(base, length, modulus)  # adding drop * w[i] removes w[i] from the window after it

    def roll(key: int, change: int) -> int:
        return (key * base + change) % modulus

    width = max(_HASH_CHUNK, length)  # the most windows in one batch
    seen: set[int] = set()
    lo, latest = 0, None  # latest: (start, keys, new keys) of the last batch that found a factor
    for w in words:
        while len(seen) < enough and lo <= len(w) - length:
            size = min(width, len(w) - length + 1 - lo)
            if lo + size > budget:
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
