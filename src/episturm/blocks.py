"""Block table: the nested building blocks of one episturmian word.

Levels 1-k..0 are single-letter seeds (level 0 is the first alphabet letter,
level -j the (k-j+1)-th). Each higher block concatenates powers of the k
previous ones, every block is a prefix of the next from level 0 on, and the
infinite word is their common limit. The table memoizes the blocks and the
integer length sequences only: palindromic prefixes, tails and the words made
from them are read off the memoized blocks. It is guarded both by level and
by size: every word it builds is checked against the length guard first.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from .errors import CancellationError, GuardExceeded, RangeError
from .spec import DirectiveSpec, exponent

if TYPE_CHECKING:
    from .words import Word

DEFAULT_LEVEL_GUARD = 64
DEFAULT_LENGTH_GUARD = 1 << 27


class BlockTable:
    """Memoized access to one word's blocks and derived data; safe to share between threads."""

    def __init__(
        self,
        spec: DirectiveSpec,
        *,
        level_guard: int = DEFAULT_LEVEL_GUARD,
        length_guard: int = DEFAULT_LENGTH_GUARD,
    ):
        if level_guard < 1:
            raise RangeError("level guard must be >= 1")
        self._spec = spec
        self._level_guard = level_guard
        self._length_guard = length_guard
        self._lock = threading.RLock()
        self._blocks: dict[int, Word] = {}
        self._pieces: dict[int, tuple[tuple[int, int], ...]] = {}
        # the integer-sequence memos hold the seed levels 1-k..0 and then every
        # level up to the highest computed, with no gaps (_sequence relies on it)
        self._lengths = {level: 1 for level in range(1 - spec.k, 1)}
        self._others = {level: int(level < 0) for level in range(1 - spec.k, 1)}

    @property
    def spec(self) -> DirectiveSpec:
        return self._spec

    def exponent(self, i: int) -> int:
        return exponent(self._spec, i)

    def _check_level(self, n: int, *, low: int, what: str) -> None:
        if n < low:
            raise RangeError(f"{what} is undefined below level {low} (got {n})")
        if n > self._level_guard:
            raise GuardExceeded(f"level {n} above the guard {self._level_guard}")

    def check_size(self, what: str, size: int) -> None:
        """Refuse to build `size` letters above the length guard, before building them."""
        if size > self._length_guard:
            raise GuardExceeded(f"{what} has {size} letters, above the length guard {self._length_guard}")

    def pieces(self, n: int) -> tuple[tuple[int, int], ...]:
        """The recurrence for block n as (level, exponent) pairs, highest level first.

        block(n) is the concatenation of block(level) * exponent over the
        pairs: ((n-1, d_n), ..., (n-k+1, d_{n-k+2}), (n-k, 1)), where the
        powers of levels below 0 are dropped and the final seed is kept.
        """
        self._check_level(n, low=1, what="block recurrence")
        with self._lock:
            got = self._pieces.get(n)
            if got is None:
                k = self._spec.k
                powers = tuple((n - j, exponent(self._spec, n - j + 1)) for j in range(1, k) if n - j >= 0)
                got = self._pieces[n] = powers + ((n - k, 1),)
            return got

    # -- integer sequences ----------------------------------------------------

    def block_length(self, n: int) -> int:
        """Length of the level-n block, computed without materializing it."""
        k = self._spec.k
        self._check_level(n, low=1 - k, what="block length")
        with self._lock:
            return self._sequence(self._lengths, n)

    def other_letter_count(self, n: int) -> int:
        """How many letters of the level-n block differ from the first alphabet letter."""
        k = self._spec.k
        self._check_level(n, low=1 - k, what="letter count")
        with self._lock:
            return self._sequence(self._others, n)

    def level_reaching(self, length: int) -> int:
        """The lowest level n >= 1 whose block has at least `length` letters."""
        n = 1
        while self.block_length(n) < length:
            n += 1
        return n

    def _sequence(self, memo: dict[int, int], n: int) -> int:
        """Term n of an integer sequence that follows the block recurrence, filling memo bottom-up."""
        got = memo.get(n)
        if got is None:
            for m in range(len(memo) - self._spec.k + 1, n + 1):
                memo[m] = sum(e * memo[level] for level, e in self.pieces(m))
            got = memo[n]
        return got

    def first_letter_count(self, n: int) -> int:
        """How many letters of the level-n block equal the first alphabet letter."""
        return self.block_length(n) - self.other_letter_count(n)

    # -- words ----------------------------------------------------------------

    def block(self, n: int) -> Word:
        """The level-n block (single seed letters at levels 1-k..0)."""
        k = self._spec.k
        self._check_level(n, low=1 - k, what="block")
        if n <= 0:
            return self._spec.alphabet[n % k]
        with self._lock:
            got = self._blocks.get(n)
            if got is None:
                self.check_size(f"block at level {n}", self.block_length(n))
                got = "".join(self.block(level) * e for level, e in self.pieces(n))
                self._blocks[n] = got
            return got

    def head(self, n: int, size: int) -> Word:
        """The first `size` letters of block n, built from its pieces when the block is longer, so it is never built whole."""
        if n <= 0 or self.block_length(n) <= size:
            return self.block(n)[:size]
        self.check_size(f"head of the block at level {n}", size)
        parts, got = [], 0
        for level, e in self.pieces(n):
            if got >= size:
                break
            piece = self.head(level, size - got)
            times = min(e, -(-(size - got) // len(piece)))
            parts.append(piece * times)
            got += len(piece) * times
        return "".join(parts)[:size]

    def palindromic_prefix(self, n: int) -> Word:
        """The palindromic prefix paired with level n (empty at level 0 when the first exponent is 1).

        Pal_n = B_n^(d_(n+1)) Pal_(n-k), and Pal_(n-k) is the first |Pal_(n-k)| letters of block n-1, which
        is longer; below level k it is B_n^(d_(n+1)) less its last letter. So it never reads level n+1.
        """
        k = self._spec.k
        self._check_level(n, low=0, what="palindromic prefix")
        self.check_size(f"palindromic prefix at level {n}", self.palindromic_prefix_length(n))
        copies = self.block(n) * exponent(self._spec, n + 1)
        if n < k:
            return copies[:-1]
        return copies + self.block(n - 1)[:self.palindromic_prefix_length(n - k)]

    def palindromic_prefix_length(self, n: int) -> int:
        """Length of the level-n palindromic prefix; -1 at the formal seed levels -k..-1."""
        k = self._spec.k
        if n < -k:
            raise RangeError(f"palindromic prefix length is undefined below level {-k} (got {n})")
        if n < 0:
            return -1
        if n > self._level_guard:
            raise GuardExceeded(f"level {n} above the guard {self._level_guard}")
        return exponent(self._spec, n + 1) * self.block_length(n) + self.palindromic_prefix_length(n - k)

    def block_tail(self, n: int, r: int) -> Word:
        """Suffix of the level-n block after the level-(n-r) palindromic prefix (1 <= r < k).

        Below level r the prefix is only formal; the tail is then the block
        with one letter of the preceding cycle stitched in front.
        """
        k = self._spec.k
        self._check_level(n, low=0, what="block tail")
        if not 1 <= r <= k - 1:
            raise RangeError(f"tail depth {r} outside 1..{k - 1}")
        if n >= r:
            return self.block(n)[self.palindromic_prefix_length(n - r):]
        return self._spec.alphabet[(n - r) % k] + self.block(n)

    def junction(self, n: int) -> Word:
        """Word closing the product of two consecutive blocks over the maximal power of the lower one.

        block(n+2) + block(n+1) == block(n+1)**(e+1) + junction(n) with e the
        (n+2)-nd exponent, literally for n >= k-1; below that the junction
        exists only formally and this raises.
        """
        k = self._spec.k
        self._check_level(n, low=0, what="junction")
        if n < k - 1:
            raise CancellationError(
                f"junction at level {n} exists only formally (levels below {k - 1} would need a negative-level prefix)"
            )
        return self.palindromic_prefix(n - k + 1) + self.block_tail(n + 1, k - 1)

    def power_prefix(self, n: int) -> Word:
        """Longest prefix of the infinite word that is a fractional power of the level-(n-1) block.

        Palindromic for every n; power_prefix(0) is empty.
        """
        self._check_level(n, low=0, what="power prefix")
        if n == 0:
            return ""
        self.check_size(f"power prefix at level {n}", self.block_length(n - 1) + self.palindromic_prefix_length(n - 1))
        return self.block(n - 1) + self.palindromic_prefix(n - 1)
