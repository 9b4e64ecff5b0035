"""Scanning oracle: literal repetition search over materialized prefixes.

Everything here works by reading letters, never the closed forms, so its
answers are an independent route for the census and index formulas.

`scan_powers_multi` compares the prefix with itself at every shift m and
reads the bases of l-th powers off the maximal equality runs of at least
need = (l-1)m letters, with one of two kernels chosen by the chunk c, the
largest power of two with 2c - 1 <= need. Below `_LONG_CHUNK` one XOR finds
every run: the prefix is held as one int, XORed with itself shifted by m
letters, and the runs of `need` zero bytes are found with `bytes.find` and a
regex for the next nonzero byte. From there on, every long enough run holds
an aligned chunk prefix[jc : jc + c], so the scan compares only the chunks:
Karp-Miller-Rosenberg ranks (STOC 1972), built by doubling, label each
length-c window exactly, one comparison decides a chunk, and each group of
equal chunks is widened to its run by forward galloping slice comparisons,
on the prefix for its end and on the prefix reversed for its start. Every
factor of a period-m run is a rotation of its first m letters, so a run with
cnt qualifying starts contributes rotations 0..cnt-1 of one word, and each
length keeps a few rotation classes, never the bases themselves. The orders
share each length's runs, and each order reads only the runs that reached the
need of the order before.

`certified_scan` proves its prefix sufficient: a strict episturmian word on
k letters has exactly (k-1)L + 1 factors of each length L (Arnoux & Rauzy
1991; Droubay, Justin & Pirillo, TCS 255, 2001), so a prefix holding that
many, with L = l_max * m_max, holds every power of order up to l_max with a
base of at most m_max letters that the infinite word has. A naive double loop
stays available as the meta-oracle for small inputs, and `ScanResult.per_length`
expands the classes into word sets for it.

`max_fractional_power` and `greatest_power_prefix` read one shift only: the
period-m run through an occurrence of the base ends where galloping slice
comparisons find the first difference. `max_fractional_power` measures only
runs that beat the longest so far: after a run of best letters it searches,
from that run's end, for the first best + 1 letters of base^∞, until that
needle grows past a share of the letters left.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate, count, repeat
from operator import add, eq, mul
from typing import NamedTuple

from .blocks import BlockTable
from .directive import CLOSURE_CHECK_WORK, closure_prefix, closure_reach
from .errors import GuardExceeded, NotAFactorError, RangeError, VerificationError
from .words import RationalIndex, Word

# A certified scan's work in letter-shifts: one letter at one shift of the XOR kernel. On a
# 2-CPU x86-64 VM (Python 3.11), as host load varies, a chunk probe of the rank kernel, with
# its share of widening runs, costs 68 to 108 ns, and one rank of a doubling 119 to 214 ns,
# so they weigh 20 and 40 letter-shifts, and a letter-shift stands for 3 to 5 ns. (The XOR
# kernel itself takes 1.5 to 4.4 ns a letter-shift from m = 50 on, but 25 to 62 ns at m = 3
# on the Tribonacci word, whose many short runs it loops over.) An (order, length) pair's
# rotation classes cost 1 to 2 us, and each order keeps a result of about 250 bytes, so a
# pair weighs 1,000: a millionth power trips at once. A window the factor count keys costs
# 320 to 750 ns (L = 2 to 1,000, on Tribonacci and on a^n b), 5 to 6.5 probes or 2.7 to 3.2
# ranks, so it weighs 128. The guard stands for 1.5 to 3 s of counting and scanning.
_SCAN_GUARD = 1 << 29
_PROBE_WORK = 20
_RANK_WORK = 40
_RESULT_WORK = 1000
_COUNT_WORK = 128
# The factor count keys windows mod the Mersenne prime 2^61 - 1 in Python ints,
# at most `_COUNT_BATCH` (or the factor length) windows at a time.
_COUNT_BATCH = 1 << 12
_FACTOR_MODULUS = (1 << 61) - 1
_FACTOR_BASE = 1_000_003
_LONG_CHUNK = 128  # the smallest chunk the rank kernel reads: below it, one XOR per shift is cheaper
# `str.find` preprocesses its needle in time linear in its length (two-way's critical factorization,
# about 4 ns a letter on a 2-CPU x86-64 VM), so `max_fractional_power` searches for base itself once
# its longer needle would pass an eighth of the letters left. On the Fibonacci word's index hosts,
# where the best run of block n spans about a third of block n + 5, the longer needles took 1.7 times
# as long as base searches; with the cap they take the same, and k5 levels 1..15 still take a quarter
# of the time.
_NEEDLE_SHARE = 8


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


def _short_runs(whole: int, size: int, m: int, need: int) -> list[tuple[int, int]]:
    """Maximal runs of prefix[i] == prefix[i + m] of at least `need` letters, as [start, end) pairs.

    `whole` holds the prefix as one little-endian int, so byte i of whole ^ (whole >> 8m)
    is zero exactly where letter i equals letter i + m, for i below size - m.
    """
    diff = (whole ^ (whole >> 8 * m)).to_bytes(size, "little")
    nonzero = re.compile(b"[^\x00]")  # compiled once, then read from re's cache, so importing the oracle stays cheap
    zeros, stop, runs, lo = bytes(need), size - m, [], 0
    while (start := diff.find(zeros, lo, stop)) >= 0:
        differs = nonzero.search(diff, start + need, stop)
        lo = differs.start() if differs else stop
        runs.append((start, lo))
    return runs


def _window_ranks(buf: bytes, width: int) -> list:
    """A label for every length-width window of buf, equal exactly when the windows are: its first start."""
    first: dict = {}
    return list(map(first.setdefault, map(buf.__getitem__, map(slice, count(), range(width, len(buf) + 1))), count()))


def _doubled(ranks: list, width: int) -> list:
    """The labels of the windows twice as long (Karp, Miller & Rosenberg): a window is its two halves."""
    first: dict = {}
    return list(map(first.setdefault, zip(ranks, ranks[width:]), count()))


def _long_runs(prefix: Word, mirror: Word, ranks: list, c: int, m: int) -> list[tuple[int, int]]:
    """Maximal runs of prefix[i] == prefix[i + m] that hold an aligned chunk prefix[jc : jc + c], as [start, end) pairs.

    Every run of at least 2c - 1 letters holds one. ranks labels the length-c windows,
    so one comparison decides a chunk; each group of equal chunks is widened to its run
    by forward gallops of `_run_end`: on the prefix from its last chunk for the run's end,
    and on mirror = prefix[::-1] from its first chunk for its start, since a run [s, e)
    of the prefix is the run [back - e, back - s) of the mirror, with back = len(prefix) - m.
    """
    stop, back = len(prefix) - m - c + 1, len(prefix) - m
    equal = bytes(map(eq, ranks[0:stop:c], ranks[m:m + stop:c]))
    return [(back - _run_end(mirror, back - group.start() * c, m), _run_end(prefix, group.end() * c, m))
            for group in re.finditer(b"\x01+", equal)]


def _classes_in_runs(prefix: Word, runs: list[tuple[int, int]], m: int, need: int) -> tuple[RotationClass, ...]:
    """Rotation classes of the distinct bases whose power of need + m letters fits in some period-m run.

    Within one run [a, b) the qualifying starts are a..a+cnt-1 with
    cnt = min(b - need - a + 1, m), and the base at a + j is rotation j of
    prefix[a : a+m]. Each distinct first word, with its largest cnt, joins the
    class whose representative it is a rotation of, found by str.find in the
    representative written twice, or starts a new class.
    """
    firsts: dict[Word, int] = {}
    for a, b in runs:
        u, c = prefix[a:a + m], min(b - need - a + 1, m)
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


def _scan_work(letters: int, m_min: int, m_max: int, l_max: int) -> int:
    """What a certified scan of `letters` letters at orders 2..l_max and lengths m_min..m_max costs, in letter-shifts.

    The factor count keys the prefix's windows of length L = l_max * m_max, and
    `scan_powers_multi` reads its shifts. At order 2 the need is m, so the shifts
    of chunk c are 2c - 1..4c - 2: below `_LONG_CHUNK` each reads every letter,
    from there each probes one chunk in c, and the ranks are doubled from
    `_LONG_CHUNK` letters up to the largest chunk.
    """
    work = (l_max - 1) * (m_max - m_min + 1) * _RESULT_WORK + max(0, letters - l_max * m_max + 1) * _COUNT_WORK
    c = 1
    while 2 * c - 1 <= m_max:
        shifts = max(0, min(m_max, 4 * c - 2) - max(m_min, 2 * c - 1) + 1)
        if c < _LONG_CHUNK:
            work += shifts * letters
        else:
            work += shifts * (letters // c) * _PROBE_WORK + letters * _RANK_WORK
        c *= 2
    return work


def scan_powers(prefix: Word, l: int, m_min: int, m_max: int) -> ScanResult:
    """All bases with base**l inside prefix, for every base length in m_min..m_max."""
    return scan_powers_multi(prefix, (l,), m_min, m_max)[l]


def scan_powers_multi(prefix: Word, orders, m_min: int, m_max: int) -> dict[int, ScanResult]:
    """Scan several power orders at once, sharing the per-length run decomposition."""
    orders = sorted(set(orders))
    if not orders or orders[0] < 2:
        raise RangeError("power orders must all be >= 2")
    if not 1 <= m_min <= m_max:
        raise RangeError(f"bad length range {m_min}..{m_max}")
    if m_max * orders[-1] > len(prefix):
        raise RangeError(f"prefix of {len(prefix)} letters is too short for order {orders[-1]} at length {m_max}")
    buf = prefix.encode("ascii")
    whole = int.from_bytes(buf, "little")
    ranks, width, mirror = None, 0, None
    results = {l: ScanResult(l, {}) for l in orders}
    for m in range(m_min, m_max + 1):
        need = (orders[0] - 1) * m
        c = 1 << ((need + 1) // 2).bit_length() - 1  # the largest power of two with 2c - 1 <= need
        if c < _LONG_CHUNK:
            runs = _short_runs(whole, len(buf), m, need)
        else:
            if ranks is None:  # the XOR kernel reads neither, so a scan below the rank kernel builds neither
                ranks, width, mirror = _window_ranks(buf, _LONG_CHUNK), _LONG_CHUNK, prefix[::-1]
            while width < c:
                ranks, width = _doubled(ranks, width), 2 * width
            runs = _long_runs(prefix, mirror, ranks, c, m)
        for l in orders:  # ascending, so each order reads only the runs that reached the one before
            need = (l - 1) * m
            runs = [run for run in runs if run[1] - run[0] >= need]
            results[l].classes[m] = _classes_in_runs(prefix, runs, m, need) if runs else ()
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


def _longest_admitted(m_min: int, m_max: int, l_max: int) -> int:
    """The most letters a certified scan at these lengths and orders may read within `_SCAN_GUARD` (0 for none), by bisection.

    `_scan_work` never falls as the letters grow, and each letter adds at least one
    letter-shift, so no more than `_SCAN_GUARD` letters are admitted.
    """
    lo, hi = 0, _SCAN_GUARD + 1  # hi is never admitted; lo is, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _scan_work(mid, m_min, m_max, l_max) <= _SCAN_GUARD:
            lo = mid
        else:
            hi = mid
    return lo


def certified_scan(table: BlockTable, m_max: int, l_max: int, *, m_min: int = 1):
    """Certify a prefix by factor complexity and scan it once at lengths m_min..m_max: (certificate, {l: ScanResult}).

    Hash keys count the factors (`count_factors`): reaching (k-1)L + 1
    is a proof, and more shows a word outside this family. Blocks are read
    from the least with k*L letters, the fewest that can hold them, each from
    where the one before stopped, since each is a prefix of the next. The
    count and the scan share one guard: the count keys no window past the
    longest prefix whose count and scan the guard admits, so a prefix too long
    is refused before its factors are counted.
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

    def too_costly(letters: int) -> GuardExceeded:
        """The refusal of a prefix of at least `letters` letters, which the guard does not admit."""
        return GuardExceeded(f"certifying lengths {m_min}..{m_max} at orders up to {l_max} costs at least "
                             f"{_scan_work(letters, m_min, m_max, l_max)} letter-shifts, above the guard {_SCAN_GUARD}")

    def blocks():
        """The blocks from the least with k*L letters up, each built once the one before fell short."""
        level, block = table.level_reaching(spec.k * length), ""
        while True:
            shorter, block = block, table.block(level)
            if not block.startswith(shorter):  # the count reads on from where the shorter block stopped
                raise VerificationError(f"block level {level} does not begin with block level {level - 1}")
            yield block
            level += 1

    admitted = _longest_admitted(m_min, m_max, l_max)
    if admitted < spec.k * length:
        raise too_costly(spec.k * length)
    try:
        found, end = count_factors(blocks(), length, target, admitted - length + 1)
    except GuardExceeded:
        raise too_costly(admitted + 1) from None  # every admitted window lacked a factor, so P is longer still
    level = table.level_reaching(end)
    if found > target:
        raise VerificationError(f"block level {level} has {found} factors of length {length}, "
                                f"more than the {target} of a strict episturmian word")
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
    """Largest exponent (possibly fractional) with base**exponent a factor of prefix.

    The host is read left to right once. A power longer than the best run so
    far, of best letters, begins with the first best + 1 letters of base^∞,
    so the next search looks for that needle, the best run and the letter
    base[best % m] that continues it, and `str.find` skips the shorter runs
    at C speed. A found needle gives period m over its letters, so the
    gallop for the run's end starts past them. Once that needle would pass a
    `_NEEDLE_SHARE`-th of the letters left, the search is for base itself
    and measures every run. Each search restarts at max(end, i + 1): an
    occurrence j with i < j < end lies inside the run just measured and
    reaches only its end, m + end - j letters.
    """
    if not base:
        raise RangeError("base must be nonempty")
    m = len(base)
    needle = base
    i = prefix.find(needle)
    if i < 0:
        raise NotAFactorError("base does not occur in the prefix")
    best = start = 0
    while i >= 0:
        end = _run_end(prefix, i + len(needle) - m, m)
        if m + end - i > best:
            best, start = m + end - i, i
        i = max(end, i + 1)
        needle = prefix[start:start + best] + base[best % m] if _NEEDLE_SHARE * best < len(prefix) - i else base
        i = prefix.find(needle, i)
    return RationalIndex(best // m, best % m, m)


def greatest_power_prefix(prefix: Word, base: Word) -> Word:
    """The longest prefix of prefix that is a (possibly fractional) power of base."""
    if not base:
        raise RangeError("base must be nonempty")
    if not prefix.startswith(base):
        raise NotAFactorError("base is not a prefix")
    return prefix[:len(base) + _run_end(prefix, 0, len(base))]
