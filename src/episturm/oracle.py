"""Scanning oracle: literal repetition search over materialized prefixes.

Everything here works by reading letters, never the closed forms, so its
answers are an independent route for the census and index formulas.

`scan_powers_multi` compares the prefix with itself at every shift m and
reads the bases of l-th powers off the maximal equality runs of at least
need = (l-1)m letters. One chunk plan, `_chunks`, gives each shift its chunk
c, the largest power of two with 2c - 1 <= need, and groups the shifts of one
chunk size into a range lo..hi; the scan picks its kernel by it and the guard
prices it. Below `_LONG_CHUNK` one XOR per shift finds every run: the prefix
is held as one int, XORed with itself shifted by m letters, and the runs of
`need` zero bytes are found with `bytes.find` and a regex for the next
nonzero byte. From there on, every long enough run holds an aligned chunk
prefix[jc : jc + c], so the scan searches only for the chunks, once for all
the shifts lo..hi: each chunk is looked up with `str.find` in
prefix[jc + lo : jc + hi + c], and a hit at jc + m outside the runs already
found at m is widened to its run by forward galloping slice comparisons, on
the prefix for its end and on the prefix reversed for its start. A chunk that
recurs less than c letters later is periodic: its periodic stretch is
measured once and gives the runs of the shifts that are multiples of its
period, so a long periodic stretch costs its runs, not one search per
(chunk, shift) pair. Every factor of a period-m run is a rotation of its
first m letters, so a run with cnt qualifying starts contributes rotations
0..cnt-1 of one word, and each length keeps a few rotation classes, never the
bases themselves. The orders share each length's runs, and each order reads
only the runs that reached the need of the order before.

`certified_scan` proves its prefix sufficient: a strict episturmian word on
k letters has exactly (k-1)L + 1 factors of each length L (Arnoux & Rauzy
1991; Droubay, Justin & Pirillo, TCS 255, 2001), so a prefix holding that
many, with L = l_max * m_max, holds every power of order up to l_max with a
base of at most m_max letters that the infinite word has. The chunk search
reads all of that prefix P. The XOR shifts look only for powers of at most
L' = l_max * (the last XOR shift, at most 254) letters, so once 2L' <= L they
read only the shortest prefix P' of P that holds the (k-1)L' + 1 factors of
length L', found by a second count on P by the same theorem. A naive double loop
stays available as the meta-oracle for small inputs, and `ScanResult.per_length`
expands the classes into word sets for it.

The one-shift measures of `index --verify`, `max_fractional_power` and
`greatest_power_prefix`, live in `runs` with the gallop `_run_end` that the
chunk search widens its hits by, so that `index --verify` loads only them;
they are re-exported here.
"""

from __future__ import annotations

import re
from itertools import accumulate, repeat
from operator import add, mul
from typing import NamedTuple

from .blocks import BlockTable
from .directive import CLOSURE_CHECK_WORK, closure_prefix, closure_reach
from .errors import GuardExceeded, RangeError, VerificationError
from .runs import _run_end, greatest_power_prefix, max_fractional_power
from .words import Word

# A certified scan's work in letter-shifts, each standing for 3 to 5 ns on a 2-CPU x86-64 VM (Python 3.11): a
# letter at a shift of the XOR kernel, which takes 1.5 to 4.4 ns a letter-shift from m = 50 on, but 25 to 62 ns at
# m = 3 on the Tribonacci word, whose many short runs it loops over; the XOR shifts read P, or P' once a second
# count has found it, and that count is priced at a window per letter of P, before it runs, in place of the XOR
# shifts (`_short_length`, `_scan_work`). At order 2, Tribonacci's P' has 2,212 letters from m_max = 508 on, so
# its XOR shifts cost 254 * 2,212 letter-shifts, not 254 * |P|. The chunk search's Python work follows its
# chunks, shifts and runs, each at most a multiple of the letters per chunk size (a word of n letters has fewer
# than n maximal runs: Bannai et al., "The 'Runs' Theorem", SIAM J. Comput. 46(5), 2017), so each chunk size costs
# `_PASS_WORK` = 32 a letter: on the prefixes certified at the limits of six reference words it took 17 to 49 ns a
# letter per chunk size on average, and 174 ns at most (k2_mixed, chunk 128). Gallops through runs that are long
# at every shift cost more: on a^400000 b a^r the run through the b has m - 1 letters at shift m, and a letter cost
# 10 ns at chunk 128 but 3.3 us at chunk 32,768. An (order, length) pair's rotation classes cost 1 to 2 us, so a
# pair weighs 1,000: a millionth power trips at once. It leaves out the m-letter word each class keeps: at lengths
# 1..12,000 of a^400000 b a^r they hold 72M letters, 91 MB max RSS for the scan alone (ROADMAP item 1). A window the
# factor count keys costs 320 to 750 ns (L = 2 to 1,000, on Tribonacci and on a^n b), so it weighs 128; a window it
# jumps over in a periodic stretch costs nothing, so a window per letter is an upper bound. The guard stands for at
# most 1 to 2 s of counting and scanning: in process, `certified_scan` took 0.42 to 0.55 s at the Tribonacci limit
# (lengths 1..72,332; P = 555,407 letters, P' = 2,212), 0.61 to 0.72 s at the Fibonacci limit (lengths 1..158,905;
# P = 635,620, P' = 1,117) and 0.81 to 0.86 s on a^400000 b a^15999 (lengths 1..8,000, whose P' holds 400,508 of P's
# 416,000 letters, but both counts take 12 ms there: they jump over the run of a), best of 3 in each of 2 processes.
_SCAN_GUARD = 1 << 29
_PASS_WORK = 32
_RESULT_WORK = 1000
_COUNT_WORK = 128
# The factor count keys windows in base 2^32 mod a prime between 2^60 and 2^61 in Python ints, in batches of
# `_COUNT_FLOOR` to `_COUNT_BATCH` windows, whatever the factor length. The modulus is no prime near a power of two:
# modulo 2^61 - 1, 2 has order 61, so letters 61 places apart would weigh alike; just below 2^61, 2^64 leaves a small
# residue (360 modulo 2^61 - 45). 2 is a primitive root of this one.
_COUNT_BATCH = 1 << 12
_COUNT_FLOOR = 1 << 8
_FACTOR_MODULUS = 1212186980286611059
_FACTOR_BASE = 1 << 32
_LONG_CHUNK = 128  # the smallest chunk searched for: below it, one XOR per shift reads every run


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

    The block `word` at level `block_level`, built no further than the scan
    guard admits, holds `factors` = (k-1)L + 1 distinct factors of length L =
    `factor_length`: all the word has. Its first `scanned_letters` letters
    already hold them, and the closure construction built the first
    `closure_checked_letters` of those too. The XOR shifts read only the first
    `short_shift_letters`: all of those letters, or, after a second count, the
    fewest that hold every factor of l_max times the last XOR shift letters.
    """

    word: Word
    covered_m_min: int
    covered_m_max: int
    factor_length: int
    factors: int
    block_level: int
    scanned_letters: int
    closure_checked_letters: int
    short_shift_letters: int


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


def _long_runs(prefix: Word, c: int, lo: int, hi: int) -> list[list[tuple[int, int]]]:
    """Per shift m in lo..hi, the maximal runs of prefix[i] == prefix[i + m] that hold an aligned chunk, as ordered [start, end) pairs.

    Every run of at least 2c - 1 letters holds a chunk prefix[x : x + c]. Each chunk is searched for
    at every shift at once, by `str.find` in prefix[x + lo : x + hi + c]; a hit at x + m outside the
    last run found at m is widened to its run by forward gallops of `_run_end`: on the prefix from
    the chunk's end for the run's end, and on mirror = prefix[::-1] for its start, since a run [s, e)
    of the prefix is the run [back - e, back - s) of the mirror, with back = len(prefix) - m.

    Two consecutive hits q < c letters apart give the chunk period q, and prefix[i : i + q] is
    primitive, so inside a period-q stretch the chunk recurs exactly every q letters. The chunk's own
    stretch [s, e) is measured once: the run of each shift kq that it holds the chunk at is
    [s, e - kq), with no gallop, and every later chunk inside it searches only from e - c + 1, past
    those runs. A stretch of hits further on is measured once too, and its hits are read off without
    a search each. So a long periodic stretch costs its runs, not its (chunk, shift) pairs.
    """
    size = len(prefix)
    mirror = prefix[::-1]
    runs: list[list[tuple[int, int]]] = [[] for _ in range(lo, hi + 1)]
    reach = [0] * (hi - lo + 1)  # the end of the last run found at each shift

    def widen(x: int, m: int) -> None:
        """The run at shift m through the chunk at x, unless the last run found at m holds the chunk."""
        if reach[m - lo] < x + c:
            back, end = size - m, _run_end(prefix, x + c, m)
            runs[m - lo].append((back - _run_end(mirror, back - x, m), end))
            reach[m - lo] = end

    s = e = 0  # the last periodic stretch measured
    for x in range(0, size - lo - c + 1, c):
        chunk, stop = prefix[x:x + c], min(x + hi + c, size)
        inside = s <= x and x + c <= e
        i = prefix.find(chunk, max(x + lo, e - c + 1) if inside else x + lo, stop)
        while i >= 0:
            after = prefix.find(chunk, i + 1, stop)
            if 0 <= after - i < c:
                q = after - i
                if not inside:  # the chunk's own period-q stretch, and the runs of the shifts kq it holds the chunk at
                    back = size - q
                    s, e, inside = back - _run_end(mirror, back - x, q), _run_end(prefix, x + c - q, q) + q, True
                    for m in range(-(-lo // q) * q, min(hi, e - x - c) + 1, q):
                        if reach[m - lo] < e - m:
                            runs[m - lo].append((s, e - m))
                            reach[m - lo] = e - m
                    if i <= e - c:
                        i = prefix.find(chunk, e - c + 1, stop)
                        continue
                last = min(_run_end(prefix, i + c, q) + q, stop) - c  # the last hit in the period-q stretch through i
                for h in range(i, last + 1, q):
                    widen(x, h - x)
                after = prefix.find(chunk, last + 1, stop)
            else:
                widen(x, i - x)
            i = after
    return runs


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


def _chunks(m_min: int, m_max: int, order: int):
    """The chunk plan of a scan at lengths m_min..m_max whose least order is `order`: (c, lo, hi) per chunk size c.

    Shift m has need (order - 1)m and chunk c, the largest power of two with 2c - 1 <= need, so the
    shifts lo..hi of one c are those with 2c - 1 <= (order - 1)m <= 4c - 2, cut to m_min..m_max.
    """
    m = m_min
    while m <= m_max:
        c = 1 << (((order - 1) * m + 1) // 2).bit_length() - 1
        hi = min(m_max, (4 * c - 2) // (order - 1))
        yield c, m, hi
        m = hi + 1


def _short_length(m_min: int, m_max: int, l_max: int) -> int:
    """L' = l_max times the last XOR shift of the order-2 chunk plan, when 2L' <= L = l_max * m_max; else 0.

    Every power that an XOR shift looks for is a factor of at most L' letters, so the shortest
    prefix P' holding the (k-1)L' + 1 factors of that length holds them all. Nearer to L, P' is
    nearly all of P, and a second count would cost more than it saves: at order 3 and lengths
    1..256, k3_mixed's P' holds 7,529 of P's 7,535 letters.
    """
    last = max((hi for c, lo, hi in _chunks(m_min, m_max, 2) if c < _LONG_CHUNK), default=0)
    return l_max * last if 2 * last <= m_max else 0


def _scan_work(letters: int, m_min: int, m_max: int, l_max: int, short_letters: int = 0) -> int:
    """What a certified scan of `letters` letters at orders 2..l_max and lengths m_min..m_max costs, in letter-shifts.

    The factor count keys at most the prefix's letters - L + 1 windows of length L = l_max * m_max,
    and `scan_powers_multi` reads its shifts by the chunk plan of order 2: below
    `_LONG_CHUNK` each shift reads every letter, and from there each chunk size pays
    `_PASS_WORK` a letter. When a short count is planned (`_short_length`), it keys at most
    a window per letter, and the XOR shifts read only the `short_letters` letters of P',
    0 until that count has found them. So the price is linear in the letters, for any
    prefix of at least L - 1 letters: a fixed part and a price per letter.
    """
    short = _short_length(m_min, m_max, l_max)
    xor_letters = short_letters if short else letters
    work = (l_max - 1) * (m_max - m_min + 1) * _RESULT_WORK + (letters - l_max * m_max + 1) * _COUNT_WORK
    work += letters * _COUNT_WORK if short else 0
    for c, lo, hi in _chunks(m_min, m_max, 2):
        work += xor_letters * (hi - lo + 1) if c < _LONG_CHUNK else letters * _PASS_WORK
    return work


def scan_powers(prefix: Word, l: int, m_min: int, m_max: int) -> ScanResult:
    """All bases with base**l inside prefix, for every base length in m_min..m_max."""
    return scan_powers_multi(prefix, (l,), m_min, m_max)[l]


def scan_powers_multi(prefix: Word, orders, m_min: int, m_max: int, short_letters: int | None = None) -> dict[int, ScanResult]:
    """Scan several power orders at once, sharing the per-length run decomposition.

    The XOR shifts (those below `_LONG_CHUNK`) read only prefix[:short_letters], all of
    it by default: a caller that knows a shorter prefix holds every power those shifts look
    for passes its length, and the chunk search still reads the whole prefix.
    """
    orders = sorted(set(orders))
    if not orders or orders[0] < 2:
        raise RangeError("power orders must all be >= 2")
    if not 1 <= m_min <= m_max:
        raise RangeError(f"bad length range {m_min}..{m_max}")
    if m_max * orders[-1] > len(prefix):
        raise RangeError(f"prefix of {len(prefix)} letters is too short for order {orders[-1]} at length {m_max}")
    if short_letters is None:
        short_letters = len(prefix)
    elif not 0 <= short_letters <= len(prefix):
        raise RangeError(f"the XOR shifts cannot read {short_letters} letters of a prefix of {len(prefix)}")
    whole = None
    results = {l: ScanResult(l, {}) for l in orders}
    for c, lo, hi in _chunks(m_min, m_max, orders[0]):
        if c >= _LONG_CHUNK:  # one search finds the runs of all the shifts of chunk c
            found = _long_runs(prefix, c, lo, hi)
        else:
            if whole is None:  # only the XOR kernel reads it
                whole = int.from_bytes(prefix[:short_letters].encode("ascii"), "little")
            found = (_short_runs(whole, short_letters, m, (orders[0] - 1) * m) for m in range(lo, hi + 1))
        for m, runs in zip(range(lo, hi + 1), found):
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


def _key_period(keys: list[int]) -> int:
    """The least q < `_COUNT_FLOOR` with 2q <= len(keys) and keys[q:] == keys[:-q], or 0 if there is none."""
    for q in range(1, min(_COUNT_FLOOR, len(keys) // 2 + 1)):
        if keys[q] == keys[0] and keys[q:] == keys[:-q]:
            return q
    return 0


def count_factors(words, length: int, enough: int) -> tuple[int, int]:
    """(distinct keys of the length-`length` factors counted, end of the shortest prefix holding them).

    `words` yields ever longer prefixes of one word; each is read on from where
    the one before stopped. A factor's key is its polynomial hash
    sum_t w[i+t] B^(length-1-t) mod a 61-bit prime, with B = 2^32: the first
    window's key is its UTF-32 code units read as one int, 2^12 letters at a
    time, and each later key is rolled from the one before in pure Python.
    Equal factors get equal keys, so a collision can only lower the count.
    Windows are keyed in order, in batches of as many windows as factors are
    missing, at least 2^8 and at most 2^12, each encoding only the letters
    that leave and enter its windows; a window holds at most one new factor,
    so a count that reaches `enough` keys at most 2^8 - 1 windows past its
    last new factor. One that runs out of `words` stops short of it: the
    caller decides what a short count means. A batch whose keys repeat with a period q below
    2^8, at least twice, may lie in a period-q stretch of letters: `_run_end`
    finds where the letters w[i] == w[i + q] from the batch's start stop, and
    every window before that end repeats the one q letters earlier, so the
    count goes on after them, from the key of a window they repeat.
    """
    modulus, base = _FACTOR_MODULUS, _FACTOR_BASE
    drop = modulus - pow(base, length, modulus)  # adding drop * w[i] removes w[i] from the window after it

    def roll(key: int, change: int) -> int:
        return (key * base + change) % modulus

    def first_key(window: Word) -> int:
        """The key of window 0: its code units read as one base-B numeral, `_COUNT_BATCH` letters at a time."""
        key = 0
        for i in range(0, length, _COUNT_BATCH):  # the units reversed, so that the first letter is the most significant
            units = memoryview(window[i:min(i + _COUNT_BATCH, length)].encode("utf-32-le")).cast("I")
            key = ((key << 32 * len(units)) + int.from_bytes(units[::-1], "little")) % modulus
        return key

    seen: set[int] = set()
    lo, key, latest = 0, 0, None  # key: that of window lo - 1; latest: (start, keys, new keys) of the last batch that found a factor
    for w in words:
        while len(seen) < enough and lo <= len(w) - length:
            start, size = lo, min(_COUNT_BATCH, max(enough - len(seen), _COUNT_FLOOR), len(w) - length + 1 - lo)
            # window i + 1 keys B * key(i) - B^length w[i] + w[i + length]
            first = roll(key, drop * ord(w[lo - 1]) + ord(w[lo + length - 1])) if lo else first_key(w[:length])
            leaving, entering = (memoryview(w[i:i + size - 1].encode("utf-32-le")).cast("I") for i in (lo, lo + length))
            keys = list(accumulate(map(add, map(mul, leaving, repeat(drop)), entering), roll, initial=first))
            distinct = set(keys)
            new = distinct - seen
            if new:
                seen |= new
                latest = start, keys, new
            lo, key = start + size, keys[-1]
            q = _key_period(keys) if len(seen) < enough and len(distinct) <= size // 2 else 0
            if q:  # windows start..end - length each equal the window q letters on, by the letters themselves
                end = _run_end(w, start, q)
                if end - length + q + 1 > lo:
                    lo, key = end - length + q + 1, keys[(end - length - start) % q]
        if len(seen) >= enough:
            break
    if latest is None:
        return 0, 0
    start, keys, new = latest
    # the factor met last is the new key whose first occurrence comes last
    last = next(filter(new.__contains__, reversed(dict.fromkeys(keys))))
    return len(seen), start + keys.index(last) + length


def certified_scan(table: BlockTable, m_max: int, l_max: int, *, m_min: int = 1):
    """Certify a prefix by factor complexity and scan it once at lengths m_min..m_max: (certificate, {l: ScanResult}).

    Hash keys count the factors (`count_factors`): reaching (k-1)L + 1
    is a proof, and more shows a word outside this family. Blocks are read
    from the least with k*L letters, the fewest that can hold them, each on
    from where the one before, its prefix, stopped. The count and the scan
    share one guard, and the blocks stop at the longest prefix it admits: a
    count that runs out short of (k-1)L + 1 is refused here, before a longer
    block is built, and the certificate keeps the block the count stopped in.
    When `_short_length` plans a second count, it counts the factors of
    L' < L letters on the certified prefix P, which holds them all, and the
    XOR shifts read only the prefix P' that holds them; the guard, which
    admitted P with that count in place of the XOR shifts, then prices them
    on P' and refuses before the scan if the total is over.
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
    block = ""  # the last block `blocks` built: the one the count stops in

    def too_costly(letters: int, short_letters: int = 0) -> GuardExceeded:
        """The refusal of a prefix of at least `letters` letters, which the guard does not admit."""
        return GuardExceeded(f"certifying lengths {m_min}..{m_max} at orders up to {l_max} costs at least "
                             f"{_scan_work(letters, m_min, m_max, l_max, short_letters)} letter-shifts, above the guard {_SCAN_GUARD}")

    def blocks():
        """The blocks from the least with k*L letters up, each built up to `admitted` letters once the one before fell short."""
        nonlocal block
        level = table.level_reaching(spec.k * length)
        while len(block) < admitted:
            shorter, block = block, table.head(level, admitted)
            if not block.startswith(shorter):  # the count reads on from where the shorter block stopped
                raise VerificationError(f"block level {level} does not begin with block level {level - 1}")
            yield block
            level += 1

    fixed = _scan_work(0, m_min, m_max, l_max)  # the price is linear in the letters, so one division finds the most admitted
    admitted = (_SCAN_GUARD - fixed) // (_scan_work(1, m_min, m_max, l_max) - fixed)
    if admitted < spec.k * length:
        raise too_costly(spec.k * length)
    found, end = count_factors(blocks(), length, target)
    if found < target:  # the admitted prefix lacks a factor, so P is longer still
        raise too_costly(admitted + 1)
    level = table.level_reaching(end)
    if found > target:
        raise VerificationError(f"block level {level} has {found} factors of length {length}, "
                                f"more than the {target} of a strict episturmian word")
    prefix = block[:end]
    short, short_end = _short_length(m_min, m_max, l_max), end
    if short:  # P holds every factor of L' < L letters, so counting them on P finds P'
        short_target = (spec.k - 1) * short + 1
        found, short_end = count_factors([prefix], short, short_target)
        if found != short_target:
            raise VerificationError(f"block level {level} has {found} factors of length {short} in its first {end} "
                                    f"letters, not the {short_target} of a strict episturmian word")
        if _scan_work(end, m_min, m_max, l_max, short_end) > _SCAN_GUARD:
            raise too_costly(end, short_end)
    checked = min(end, closure_reach(spec, CLOSURE_CHECK_WORK))
    if not prefix.startswith(closure_prefix(spec, checked)):
        raise VerificationError(f"block level {level} disagrees with the closure construction within {checked} letters")
    scans = scan_powers_multi(prefix, range(2, l_max + 1), m_min, m_max, short_end)
    return PrefixCertificate(block, m_min, m_max, length, target, level, end, checked, short_end), scans


def certify_prefix(table: BlockTable, m_max: int, l_max: int) -> PrefixCertificate:
    """The certificate alone: a block holding every factor of length l_max * m_max."""
    return certified_scan(table, m_max, l_max)[0]

