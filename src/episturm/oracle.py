"""Scanning oracle: literal repetition search over materialized prefixes.

Everything here works by reading letters, never the closed forms, so its
answers are an independent route for the census and index formulas.

`scan_powers_multi` compares the prefix with itself at every shift m and
reads the bases of l-th powers off the maximal equality runs of at least
need = (l-1)m letters. Its cost follows those long runs, not every
mismatch: once need >= 15, a chunk filter (the sampling idea behind
Main-Lorentz and Kolpakov-Kucherov) compares eight letters at a time as
uint64 words and OR-folds the verdicts into aligned chunks of c letters,
c the largest power of two with 2c - 1 <= need, so each long run holds an
equal chunk and only groups of equal chunks are refined to exact runs.
Shorter shifts read every run of the full equality mask. Every factor of a
period-m run is a rotation of its first m letters, so a run with cnt
qualifying starts contributes rotations 0..cnt-1 of one word, and each length
keeps a few rotation classes, never the bases themselves.

`certified_scan` proves its prefix sufficient: a strict episturmian word on
k letters has exactly (k-1)L + 1 factors of each length L (Arnoux & Rauzy
1991; Droubay, Justin & Pirillo, TCS 255, 2001), so a prefix holding that
many, with L = l_max * m_max, holds every power of order up to l_max with a
base of at most m_max letters that the infinite word has. A naive double loop
stays available as the meta-oracle for small inputs, and `ScanResult.per_length`
expands the classes into word sets for it.

`max_fractional_power` and `greatest_power_prefix` read one shift only: the
period-m run through an occurrence of the base ends where galloping slice
comparisons find the first difference, and each run is measured once, from
its first occurrence, without numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .blocks import BlockTable
from .directive import CLOSURE_CHECK_WORK, closure_prefix, closure_reach
from .errors import GuardExceeded, NotAFactorError, RangeError, VerificationError
from .words import RationalIndex, Word, count_factors

if TYPE_CHECKING:  # numpy is imported inside the functions that use it, so the closed-form route starts without it
    import numpy as np

# Letter-shifts one certification scan may cost: m_max times the letters of the
# scanned prefix, once per power order, since each order reads every run again.
# Measured on a 2-CPU x86-64 VM (Python 3.11) at 0.3 to 0.8 ns each at order 2
# (orders 3 and 4 add 15 to 25% each on the reference words), so the cap stands
# for under 7 s. Memory follows the runs, not the bases: each run's first m
# letters while a length is scanned, and a few rotation classes per length kept.
_SCAN_GUARD = 1 << 33
# Windows the factor count may key. Only a long run of one directive letter makes
# P much longer than k*L within the scan guard, and there a window costs about
# 75 ns (2^25 windows: about 2.5 s; 180 to 400 ns each on the Tribonacci word).
_COUNT_GUARD = 1 << 25
_RUN_BATCH = 1 << 16
_FOLD_MIN_NEED = 15  # 2c - 1 for the smallest chunk, one uint64 word of c = 8 letters


def _spans(pieces, period: int) -> tuple[tuple[int, int], ...]:
    """The offsets covered by the [lo, hi) pieces, reduced mod period, as sorted disjoint [lo, hi) spans in 0..period."""
    cut = []
    for lo, hi in pieces:
        if hi - lo >= period:
            return ((0, period),)
        lo, hi = lo % period, lo % period + hi - lo
        cut += [(lo, period), (0, hi - period)] if hi > period else [(lo, hi)]
    merged: list[list[int]] = []
    for lo, hi in sorted(cut):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class RotationClass:
    """Some rotations of one word: word[j:] + word[:j] for the offsets j in `spans`.

    Construction reduces the offsets mod `period`, the least p > 0 with
    word[p:] + word[:p] == word, so each listed offset names a distinct word.
    Two classes are equal when they list the same words, whichever rotation
    each keeps as its representative: the other's word is located in
    word + word and its offsets shifted by that amount.
    """

    __slots__ = ("word", "spans", "period")  # not a NamedTuple: equality compares the words listed, not the fields

    def __init__(self, word: Word, spans) -> None:
        self.word = word
        self.period = (word + word).find(word, 1)
        self.spans = _spans(spans, self.period)

    def __repr__(self) -> str:
        return f"RotationClass(word={self.word!r}, spans={self.spans!r}, period={self.period})"

    def __len__(self) -> int:
        return sum(hi - lo for lo, hi in self.spans)

    def __eq__(self, other):
        if not isinstance(other, RotationClass):
            return NotImplemented
        if len(self.word) != len(other.word) or self.period != other.period or len(self) != len(other):
            return False
        shift = (self.word + self.word).find(other.word)
        return shift >= 0 and _spans(((lo + shift, hi + shift) for lo, hi in other.spans), self.period) == self.spans

    def rotations(self) -> frozenset:
        """The words themselves: len(self) of them, each as long as `word`."""
        w = self.word
        return frozenset(w[j:] + w[:j] for lo, hi in self.spans for j in range(lo, hi))


def same_bases(a: tuple[RotationClass, ...], b: tuple[RotationClass, ...]) -> bool:
    """Whether two descriptions of one length list the same words.

    The classes of one description are never rotations of each other, so
    the two are equal exactly when their classes pair off one to one.
    """
    return len(a) == len(b) and all(any(x == y for y in b) for x in a)


class ScanResult(NamedTuple):
    """Bases found by one scan: classes maps m to the rotation classes of the length-m words w with w**l inside the prefix."""

    l: int
    classes: dict[int, tuple[RotationClass, ...]]

    @property
    def per_length(self) -> dict[int, frozenset]:
        """The same answer as word sets, built on each read: count * m letters per length, for tests and small scans."""
        return {m: frozenset().union(*(c.rotations() for c in found)) for m, found in self.classes.items()}


class PrefixCertificate(NamedTuple):
    """What a certified scan rests on.

    The block `word`, at level `block_level`, holds `factors` = (k-1)L + 1
    distinct factors of length L = `factor_length`: all the word has. Its
    first `scanned_letters` letters already hold them, and the closure
    construction built the first `closure_checked_letters` of those too.
    """

    word: Word
    covered_m_min: int
    covered_m_max: int
    factor_length: int
    factors: int
    block_level: int
    scanned_letters: int
    closure_checked_letters: int


def generate_prefix(table: BlockTable, min_length: int) -> Word:
    """The smallest block of length >= min_length (any block is a prefix of the word)."""
    if min_length < 1:
        raise RangeError(f"min_length must be >= 1 (got {min_length})")
    return table.block(table.level_reaching(min_length))


def _true_runs(mask: np.ndarray) -> np.ndarray:
    """Maximal True runs of a bool array as an (r, 2) array of [start, end) pairs."""
    import numpy as np

    padded = np.empty(mask.size + 2, dtype=bool)
    padded[0] = padded[-1] = False
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges.reshape(-1, 2)


def _chunk_runs(buf: bytes, arr: np.ndarray, m: int, need: int) -> np.ndarray:
    """Maximal runs of prefix[i] == prefix[i + m] as (r, 2) [start, end) pairs: every run of at
    least `need` (>= 15) letters, perhaps with a few shorter ones.

    With c the largest power of two such that 2c - 1 <= need, each such run covers an aligned
    chunk of c letters. The prefix is compared with itself at offset m as uint64 words, eight
    letters each; the per-word verdicts are OR-folded to one per chunk, and only groups of
    equal chunks are refined, word by word and then letter by letter, to the run's edges.
    Each edge lies in the unequal chunk next to its group, or in the last c - 1 letters,
    past the whole chunks.
    """
    import numpy as np

    size = len(buf) - m
    c = 1 << ((need + 1) // 2).bit_length() - 1
    per_chunk = c // 8
    chunks = size // c
    words = chunks * per_chunk
    unequal = np.frombuffer(buf, np.uint64, words) != np.frombuffer(buf, np.uint64, words, m)
    folded = unequal.view(f"u{min(per_chunk, 8)}")
    while folded.size > chunks:
        folded = folded[0::2] | folded[1::2]
    zero = np.flatnonzero(folded == 0)
    if not zero.size:
        return np.empty((0, 2), dtype=np.int64)
    breaks = np.flatnonzero(zero[1:] != zero[:-1] + 1)
    lo = zero[np.r_[0, breaks + 1]] * c
    hi = zero[np.r_[breaks, zero.size - 1]] * c + c
    span = np.arange(per_chunk)
    octet = np.arange(8)
    starts = lo.copy()
    left = lo > 0
    if left.any():
        # the chunk before holds a mismatch: find its last unequal word, then that word's last unequal letter
        word = lo[left] // 8 - 1 - np.argmax(unequal[lo[left, None] // 8 - 1 - span], axis=1)
        letter = 8 * word[:, None] + 7 - octet
        starts[left] = 8 * word + 8 - np.argmax(arr[letter] != arr[letter + m], axis=1)
    ends = hi.copy()
    right = hi < chunks * c
    if right.any():
        word = hi[right] // 8 + np.argmax(unequal[hi[right, None] // 8 + span], axis=1)
        letter = 8 * word[:, None] + octet
        ends[right] = 8 * word + np.argmax(arr[letter] != arr[letter + m], axis=1)
    if not right[-1]:
        last = hi[-1]
        differs = np.flatnonzero(arr[last:size] != arr[last + m:])
        ends[-1] = last + differs[0] if differs.size else size
    return np.stack((starts, ends), axis=1)


def _classes_in_runs(prefix: Word, runs: np.ndarray, m: int, l: int) -> tuple[RotationClass, ...]:
    """Rotation classes of the distinct bases whose l-th power fits in some period-m run.

    Within one run [a, b) the qualifying starts are a..a+cnt-1 with
    cnt = min(b - (l-1)m - a + 1, m), and the base at a + j is rotation j of
    prefix[a : a+m]. Each distinct first word, with its largest cnt, joins the
    class whose representative it is a rotation of, found by str.find in the
    representative written twice, or starts a new class.
    """
    import numpy as np

    need = (l - 1) * m
    picked = runs[runs[:, 1] - runs[:, 0] >= need]
    if not picked.size:
        return ()
    a = picked[:, 0]
    cnt = np.minimum(picked[:, 1] - need - a + 1, m)
    firsts: dict[Word, int] = {}
    for lo in range(0, a.size, _RUN_BATCH):  # batches keep the Python int lists small
        part = slice(lo, lo + _RUN_BATCH)
        for i, c in zip(a[part].tolist(), cnt[part].tolist()):
            u = prefix[i:i + m]
            if firsts.get(u, 0) < c:
                firsts[u] = c
    classes: list[tuple[Word, Word, list]] = []  # (representative, representative twice, [lo, hi) offsets)
    for u, c in firsts.items():
        for _, twice, pieces in classes:
            shift = twice.find(u)
            if shift >= 0:
                pieces.append((shift, shift + c))
                break
        else:
            classes.append((u, u + u, [(0, c)]))
    return tuple(RotationClass(u, tuple(pieces)) for u, _, pieces in classes)


def scan_powers(prefix: Word, l: int, m_min: int, m_max: int) -> ScanResult:
    """All bases with base**l inside prefix, for every base length in m_min..m_max."""
    return scan_powers_multi(prefix, (l,), m_min, m_max)[l]


def scan_powers_multi(prefix: Word, orders, m_min: int, m_max: int) -> dict[int, ScanResult]:
    """Scan several power orders at once, sharing the per-length run decomposition."""
    import numpy as np

    orders = sorted(set(orders))
    if not orders or orders[0] < 2:
        raise RangeError("power orders must all be >= 2")
    if not 1 <= m_min <= m_max:
        raise RangeError(f"bad length range {m_min}..{m_max}")
    if m_max * orders[-1] > len(prefix):
        raise RangeError(f"prefix of {len(prefix)} letters is too short for order {orders[-1]} at length {m_max}")
    buf = prefix.encode("ascii")
    arr = np.frombuffer(buf, dtype=np.uint8)
    results = {l: ScanResult(l, {}) for l in orders}
    for m in range(m_min, m_max + 1):
        need = (orders[0] - 1) * m
        if need < _FOLD_MIN_NEED:
            runs = _true_runs(arr[m:] == arr[:-m])
        else:
            runs = _chunk_runs(buf, arr, m, need)
        for l in orders:
            results[l].classes[m] = _classes_in_runs(prefix, runs, m, l)
    return results


def naive_scan(prefix: Word, l: int, m_min: int, m_max: int) -> dict[int, frozenset]:
    """Meta-oracle: the fully naive double loop. Only for short prefixes."""
    if l < 2:
        raise RangeError(f"power order must be >= 2 (got {l})")
    if not 1 <= m_min <= m_max <= len(prefix) // l:
        raise RangeError(f"bad length range {m_min}..{m_max} for {len(prefix)} letters at order {l}")
    out: dict[int, frozenset] = {}
    for m in range(m_min, m_max + 1):
        bases = set()
        for i in range(len(prefix) - l * m + 1):
            w = prefix[i:i + m]
            if prefix[i:i + l * m] == w * l:
                bases.add(w)
        out[m] = frozenset(bases)
    return out


def certified_scan(table: BlockTable, m_max: int, l_max: int, *, m_min: int = 1):
    """Certify a prefix by factor complexity and scan it once at lengths m_min..m_max: (certificate, {l: ScanResult}).

    Hash keys count the factors (`words.count_factors`): reaching (k-1)L + 1
    is a proof, and more shows a word outside this family. Blocks are read
    from the least with k*L letters, the fewest that can hold them, each from
    where the one before stopped, since each is a prefix of the next; one that
    falls short is shorter than the complete prefix, so the scan guard reads
    its length before the next block is built, and the count stops at its own
    budget of windows.
    """
    if m_max < 1:
        raise RangeError(f"m_max must be >= 1 (got {m_max})")
    if not 1 <= m_min <= m_max:
        raise RangeError(f"m_min must be in 1..{m_max} (got {m_min})")
    if l_max < 2:
        raise RangeError(f"l_max must be >= 2 (got {l_max})")
    spec = table.spec
    if not spec.period:
        raise RangeError("a finite directive has no infinite word to certify")
    length = l_max * m_max
    target = (spec.k - 1) * length + 1

    def check_cost(letters: int) -> None:
        """Refuse a scan of at least `letters` letters before paying for it or for the blocks it needs."""
        if (l_max - 1) * m_max * letters > _SCAN_GUARD:
            raise GuardExceeded(f"certifying lengths up to {m_max} at orders up to {l_max} scans at least "
                                f"{(l_max - 1) * m_max * letters} letter-shifts, above the guard {_SCAN_GUARD}")

    def blocks():
        """The blocks from the least with k*L letters up, each built once the one before fell short."""
        level, block = table.level_reaching(spec.k * length), ""
        while True:
            shorter, block = block, table.block(level)
            if not block.startswith(shorter):  # the count reads on from where the shorter block stopped
                raise VerificationError(f"block level {level} does not begin with block level {level - 1}")
            yield block
            check_cost(len(block))  # it lacks a factor, so P is longer still
            level += 1

    check_cost(spec.k * length)
    found, end = count_factors(blocks(), length, target, _COUNT_GUARD)
    level = table.level_reaching(end)
    if found > target:
        raise VerificationError(f"block level {level} has {found} factors of length {length}, "
                                f"more than the {target} of a strict episturmian word")
    check_cost(end)
    block = table.block(level)
    prefix = block[:end]
    checked = min(end, closure_reach(spec, CLOSURE_CHECK_WORK))
    if closure_prefix(spec, checked) != prefix[:checked]:
        raise VerificationError(f"block level {level} disagrees with the closure construction within {checked} letters")
    scans = scan_powers_multi(prefix, range(2, l_max + 1), m_min, m_max)
    return PrefixCertificate(block, m_min, m_max, length, target, level, end, checked), scans


def certify_prefix(table: BlockTable, m_max: int, l_max: int) -> PrefixCertificate:
    """The certificate alone: a block holding every factor of length l_max * m_max."""
    return certified_scan(table, m_max, l_max)[0]


def _run_end(w: Word, i: int, m: int) -> int:
    """The end of the period-m run through i: the least e >= i with w[e] != w[e + m], or len(w) - m.

    Slices are compared at C speed, doubling until one differs and then
    halving onto its first difference, so the cost is linear in e - i.
    """
    limit = len(w) - m
    step = 1
    while i < limit:
        step = min(step, limit - i)
        if w[i:i + step] != w[i + m:i + m + step]:
            break
        i += step
        step *= 2
    else:
        return limit
    while step > 1:  # the first difference lies in w[i : i + step]
        half = step // 2
        if w[i:i + half] == w[i + m:i + m + half]:
            i += half
            step -= half
        else:
            step = half
    return i


def max_fractional_power(prefix: Word, base: Word) -> RationalIndex:
    """Largest exponent (possibly fractional) with base**exponent a factor of prefix."""
    if not base:
        raise RangeError("base must be nonempty")
    i = prefix.find(base)
    if i < 0:
        raise NotAFactorError("base does not occur in the prefix")
    m = len(base)
    best = 0
    while i >= 0:
        end = _run_end(prefix, i, m)
        best = max(best, m + end - i)
        # an occurrence before `end` lies in the run just measured and reaches only as far
        i = prefix.find(base, max(end, i + 1))
    return RationalIndex(best // m, best % m, m)


def greatest_power_prefix(prefix: Word, base: Word) -> Word:
    """The longest prefix of prefix that is a (possibly fractional) power of base."""
    if not base:
        raise RangeError("base must be nonempty")
    if not prefix.startswith(base):
        raise NotAFactorError("base is not a prefix")
    return prefix[:len(base) + _run_end(prefix, 0, len(base))]
