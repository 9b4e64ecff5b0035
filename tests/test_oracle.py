"""Brute-force repetition scanning: the independent route the census is checked against."""

import random
from itertools import takewhile

import pytest
from hypothesis import example, given, settings, strategies as st

from episturm.blocks import BlockTable
from episturm.directive import CLOSURE_CHECK_WORK, closure_lengths, closure_prefix, closure_reach
import episturm.oracle as oracle
import episturm.runs as runs
from episturm.errors import GuardExceeded, NotAFactorError, RangeError, VerificationError
from episturm.oracle import (
    RotationClass,
    certified_scan,
    certify_prefix,
    count_factors,
    generate_prefix,
    greatest_power_prefix,
    max_fractional_power,
    naive_scan,
    same_bases,
    scan_powers,
    scan_powers_multi,
)
from episturm.powers import block_index, census, witness_host_level
from episturm.spec import DirectiveSpec
from episturm.words import RationalIndex, factors_of_length, occurrences

from conftest import ALL_NAMES


@pytest.fixture(scope="module")
def trib(tables):
    return tables["tribonacci"]


class TestScan:
    def test_known_squares(self):
        out = scan_powers("aabaabaa", 2, 1, 4)
        assert out.per_length[1] == frozenset({"a"})
        assert out.per_length[2] == frozenset()
        assert out.per_length[3] == frozenset({"aab", "aba", "baa"})
        assert out.per_length[4] == frozenset()
        assert scan_powers("abababab", 2, 2, 2).per_length[2] == frozenset({"ab", "ba"})

    def test_positions_are_sound(self):
        out = scan_powers("abababab", 3, 1, 2)
        assert out.per_length[2] == frozenset({"ab", "ba"})
        assert occurrences("abababab", "ab" * 3) == [0, 2]
        for bases in out.per_length.values():
            for w in bases:
                assert occurrences("abababab", w * 3)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_agrees_with_fully_naive_scan(self, tables, name):
        prefix = generate_prefix(tables[name], 600)[:600]
        for l in (2, 3, 4):
            fast = scan_powers(prefix, l, 1, 60)
            assert fast.per_length == naive_scan(prefix, l, 1, 60)

    def test_agrees_with_naive_over_the_full_length_range(self, trib):
        prefix = generate_prefix(trib, 1200)[:1200]
        for l in (2, 3, 4):
            m_max = len(prefix) // l
            fast = scan_powers(prefix, l, 1, m_max)
            assert fast.per_length == naive_scan(prefix, l, 1, m_max)

    def test_multi_shares_results(self, trib):
        prefix = generate_prefix(trib, 2000)
        multi = scan_powers_multi(prefix, (2, 3), 1, 40)
        assert multi[2].per_length == scan_powers(prefix, 2, 1, 40).per_length
        assert multi[3].per_length == scan_powers(prefix, 3, 1, 40).per_length

    def test_rejects_bad_arguments(self):
        with pytest.raises(RangeError):
            scan_powers("abcabc", 1, 1, 2)
        with pytest.raises(RangeError):
            scan_powers("abcabc", 2, 3, 2)
        with pytest.raises(RangeError):
            scan_powers("abc", 2, 1, 2)

    @given(st.text(alphabet="ab", min_size=4, max_size=120), st.integers(min_value=2, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_random_words_match_naive(self, w, l):
        m_max = len(w) // l
        got = scan_powers(w, l, 1, m_max).per_length
        assert got == naive_scan(w, l, 1, m_max)


def _check_description(result):
    """Each length's classes list distinct words and are never rotations of each other."""
    for m, found in result.classes.items():
        words = [c.rotations() for c in found]
        assert all(len(c.word) == m and len(c) == len(ws) for c, ws in zip(found, words))
        assert all(0 <= lo < hi <= c.period and m % c.period == 0 for c in found for lo, hi in c.spans)
        conjugacy = [frozenset(c.word[j:] + c.word[:j] for j in range(m)) for c in found]
        assert len(set(conjugacy)) == len(found)


def _check_against_naive(w, l, m_min=1):
    """The scans of w and of a prefix of w match the naive double loop;
    comparing the two scans by description agrees with comparing their word sets."""
    m_max = len(w) // l
    if m_max < m_min:
        return
    full = scan_powers(w, l, m_min, m_max)
    _check_description(full)
    assert full.per_length == naive_scan(w, l, m_min, m_max)
    shorter = len(w) * 2 // 3
    if shorter // l >= m_min:
        part = scan_powers(w[:shorter], l, m_min, shorter // l)
        _check_description(part)
        assert part.per_length == naive_scan(w[:shorter], l, m_min, shorter // l)
        for m, found in part.classes.items():
            assert same_bases(found, full.classes[m]) == (part.per_length[m] == full.per_length[m])


class TestRotationClasses:
    """Scans keep rotation classes per length; the expansion is the word set and equality is set equality."""

    @pytest.mark.parametrize(
        "w, l, m, classes",
        [
            ("ababcdcd", 2, 2, 2),  # {ab} and {cd}
            ("aabaabaacaacaac", 2, 3, 2),  # {aab, aba, baa} and {aac, aca, caa}
            ("abcabcxcabcab", 2, 3, 1),  # {abc, cab}: rotations 0 and 2 of abc, two spans
            ("aaaaaaa", 2, 2, 1),  # {aa}: period 1, one offset
            ("abababababab", 2, 4, 1),  # {abab, baba}: period 2, two offsets
            ("ababababababcc", 3, 4, 1),  # {abab}
        ],
    )
    def test_classes_and_non_primitive_bases_match_naive(self, w, l, m, classes):
        got = scan_powers(w, l, m, m)
        _check_description(got)
        assert len(got.classes[m]) == classes
        assert got.per_length == naive_scan(w, l, m, m)
        for shorter in range(l * m, len(w)):
            part = scan_powers(w[:shorter], l, m, m)
            _check_description(part)
            assert part.per_length == naive_scan(w[:shorter], l, m, m)
            assert same_bases(part.classes[m], got.classes[m]) == (part.per_length[m] == got.per_length[m])

    def test_period_reduces_offsets(self):
        assert RotationClass("aaaa", ((0, 3),)).spans == ((0, 1),)
        assert RotationClass("abab", ((1, 4),)).spans == ((0, 2),)
        assert RotationClass("abab", ((3, 4),)).spans == ((1, 2),)
        assert RotationClass("abcd", ((3, 6),)).spans == ((0, 2), (3, 4))
        assert RotationClass("abab", ((0, 1),)) == RotationClass("baba", ((1, 2),))

    def test_equality_ignores_the_representative(self):
        assert RotationClass("abcd", ((1, 3),)) == RotationClass("bcda", ((0, 2),))
        assert RotationClass("abcd", ((3, 5),)) == RotationClass("dabc", ((0, 2),))
        assert RotationClass("abcd", ((0, 2),)) != RotationClass("bcda", ((0, 2),))
        assert RotationClass("abcd", ((0, 1),)) != RotationClass("abdc", ((0, 1),))
        assert RotationClass("abab", ((0, 2),)) != RotationClass("abababab", ((0, 2),))

    @given(
        st.text(alphabet="ab", min_size=1, max_size=12),
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 12)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 12)), min_size=1, max_size=4),
        st.integers(0, 11),
    )
    @settings(max_examples=200, deadline=None)
    def test_equality_is_word_set_equality(self, w, first, second, turn):
        turn %= len(w)
        a = RotationClass(w, tuple((lo, lo + n) for lo, n in first))
        b = RotationClass(w[turn:] + w[:turn], tuple((lo, lo + n) for lo, n in second))
        expected = {w[j % len(w):] + w[:j % len(w)] for lo, n in first for j in range(lo, lo + n)}
        assert a.rotations() == expected and len(a) == len(expected)
        assert (a == b) == (a.rotations() == b.rotations())
        assert same_bases((a,), (b,)) == (a == b)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_certified_scans_are_one_class_per_carrying_length(self, certificates, name):
        _, scans = certificates[name]
        for result in scans.values():
            _check_description(result)
            assert all(len(found) <= 1 for found in result.classes.values())


@st.composite
def random_specs(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    pre = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=4))
    per = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    return DirectiveSpec.make(k, tuple(pre), tuple(per))


@st.composite
def periodic_words(draw, limit=700, period=140):
    """h u^r v cut to at most `limit` letters: runs of period |u| that start anywhere and end at the prefix end or
    just before the tail v."""
    h = draw(st.text(alphabet="abc", max_size=40))
    u = draw(st.text(alphabet="abc", min_size=1, max_size=period))
    size = draw(st.integers(min_value=2 * len(u), max_value=limit))
    v = draw(st.text(alphabet="abc", max_size=20))
    return (h + (u * (size // len(u) + 1))[:size] + v)[:limit]


@st.composite
def run_hosts(draw):
    """(host, base): runs of period |base| cut from base^∞ at a drawn phase and length, in rising, falling or drawn
    order of length; a letter outside the base parts them or, in some hosts, nothing does, so a run may begin
    inside the last m letters of the one before. The host may end inside its last run."""
    base = draw(st.text(alphabet="ab", min_size=1, max_size=6))
    m = len(base)
    lengths = draw(st.lists(st.integers(min_value=0, max_value=5 * m + 3), min_size=1, max_size=40))
    order = draw(st.sampled_from(("rising", "falling", "drawn")))
    if order != "drawn":
        lengths.sort(reverse=order == "falling")
    power = base * (max(lengths) // m + 2)
    runs = []
    for r in lengths:
        phase = draw(st.integers(0, m - 1))
        runs.append(power[phase:phase + r])
    return draw(st.sampled_from(("", "c"))).join(runs) + draw(st.sampled_from(("", "c"))), base


class TestChunkFilter:
    """Once the smallest order's need (l-1)m reaches 255, the all-shift scan finds long runs by searching for chunks
    of 128 or more letters; it must stay exact."""

    @given(st.text(alphabet="ab", min_size=32, max_size=700), st.integers(min_value=2, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_binary_words_match_naive(self, w, l):
        _check_against_naive(w, l)

    @given(st.text(alphabet="abc", min_size=32, max_size=700), st.integers(min_value=2, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_ternary_words_match_naive(self, w, l):
        _check_against_naive(w, l)

    @given(periodic_words(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=80, deadline=None)
    def test_periodic_words_match_naive(self, w, l):
        _check_against_naive(w, l)

    @pytest.mark.parametrize("period", [14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255])
    @pytest.mark.parametrize("head, tail", [("", ""), ("cbc", "c"), ("cbbcacbccba", "cabbacb")])
    def test_runs_of_every_chunk_size(self, period, head, tail):
        u = ("abaababaabaab" * 20)[: period - 1] + "c"
        for size in (2 * period + 3, 4 * period + 5, 600):
            w = head + (u * (size // period + 1))[:size] + tail
            for l in (2, 3):
                if l * period <= len(w):
                    _check_against_naive(w, l, m_min=max(1, period - 3))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_certified_scan_equals_a_scan_of_the_whole_block(self, certificates, name):
        cert, scans = certificates[name]
        direct = scan_powers_multi(cert.word, (2, 3, 4), 1, cert.covered_m_max)
        assert {l: scans[l].per_length for l in scans} == {l: direct[l].per_length for l in direct}

    def test_non_nested_blocks_are_refused(self, monkeypatch):
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"))
        block = table.block
        # each block is built from reversed lower blocks and reversed again, so block 8 does not begin with
        # block 7, and the count, which reads each block on from where the one before stopped, refuses it
        monkeypatch.setattr(table, "block", lambda n: block(n)[::-1])
        with pytest.raises(VerificationError, match="block level 8 does not begin with block level 7"):
            certified_scan(table, 13, 2)


def _sweep(w, l_max, windows):
    """One multi-order scan per window of lengths equals the naive double loop at every order 2..l_max."""
    for m_min, m_max in windows:
        m_min, m_max = max(m_min, 1), min(m_max, len(w) // l_max)
        if m_min > m_max:
            continue
        multi = scan_powers_multi(w, range(2, l_max + 1), m_min, m_max)
        for l in range(2, l_max + 1):
            _check_description(multi[l])
            assert multi[l].per_length == naive_scan(w, l, m_min, m_max), (l, m_min, m_max)


# order 2 reads shift m by chunk search once its chunk, the largest power of two c with 2c - 1 <= m, reaches _LONG_CHUNK
_CUTOFF_SHIFT = 2 * oracle._LONG_CHUNK - 1


class TestKernelSweep:
    """The XOR kernel below the cutoff and the chunk search above it, against the naive double loop.

    Windows of lengths straddle the cutoff, most shifts are not multiples of their
    chunk, every order 2..l_max shares one scan, and a smaller cutoff sends short
    shifts through the chunk search too.
    """

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=5000), st.integers(min_value=2, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_the_chunk_plan_sends_each_shift_to_its_chunk(self, m_min, extra, order):
        # every shift once, in order, under the largest power of two c with 2c - 1 <= (order - 1)m, each c once
        plan = list(oracle._chunks(m_min, m_min + extra, order))
        assert [m for _, lo, hi in plan for m in range(lo, hi + 1)] == list(range(m_min, m_min + extra + 1))
        assert len({c for c, _, _ in plan}) == len(plan)
        for c, lo, hi in plan:
            assert c & (c - 1) == 0
            assert all(2 * c - 1 <= (order - 1) * m < 4 * c - 1 for m in range(lo, hi + 1))

    @given(periodic_words(limit=1100, period=300), st.integers(min_value=2, max_value=4), st.sampled_from([1, 2, 8, oracle._LONG_CHUNK]))
    @settings(max_examples=60, deadline=None)
    def test_periodic_words(self, w, l_max, cutoff):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_LONG_CHUNK", cutoff)
            _sweep(w, l_max, [(1, 12), (_CUTOFF_SHIFT - 12, _CUTOFF_SHIFT + 12), (len(w) // l_max - 15, len(w))])

    @given(st.text(alphabet="abc", min_size=500, max_size=1100), st.integers(min_value=2, max_value=4),
           st.sampled_from([1, 4, oracle._LONG_CHUNK]))
    @settings(max_examples=30, deadline=None)
    def test_random_words(self, w, l_max, cutoff):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_LONG_CHUNK", cutoff)
            _sweep(w, l_max, [(1, 20), (_CUTOFF_SHIFT - 8, _CUTOFF_SHIFT + 8)])

    @given(st.integers(min_value=1, max_value=1100), st.integers(min_value=2, max_value=5),
           st.sampled_from([1, 8, oracle._LONG_CHUNK]))
    @settings(max_examples=30, deadline=None)
    def test_one_long_exponent(self, n, l_max, cutoff):
        # a^n b a^n ...: one run of n - m letters at every shift m < n, and the a^m bases of orders up to n/m
        w = generate_prefix(BlockTable(DirectiveSpec.parse(f"k=2; d={n}; 1")), 2 * n + 40)[:2 * n + 40]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_LONG_CHUNK", cutoff)
            _sweep(w, l_max, [(1, 10), (_CUTOFF_SHIFT - 6, _CUTOFF_SHIFT + 6), (n // l_max - 3, n // l_max + 3)])


class _Searched(str):
    """A word that counts the `find` calls made on it."""

    finds = 0

    def find(self, *args):
        type(self).finds += 1
        return super().find(*args)


class TestChunkSearchWork:
    def test_periodic_chunks_are_not_walked_hit_by_hit(self, monkeypatch):
        # a^n b a^n has three runs at each shift m of the chunk search: [0, n - m) and [n + 1, 2n + 1 - m) lie in the
        # two blocks' period-1 stretches, measured once per chunk size, and [n - m + 1, n) crosses the b; only that one
        # is widened by gallops. The chunks just before the b find their hits past it in one more stretch each, also
        # measured once. Walking the a^c chunks hit by hit instead would search every (chunk, shift) pair, about 2n
        # per chunk size, and gallop for all three runs.
        n, m_max = 5000, 2000
        sizes = [c for c in (oracle._LONG_CHUNK << j for j in range(4)) if 2 * c - 1 <= m_max]
        gallops = []
        run_end = oracle._run_end
        monkeypatch.setattr(oracle, "_run_end", lambda *args: gallops.append(args[1:]) or run_end(*args))
        monkeypatch.setattr(_Searched, "finds", 0)
        scan = scan_powers(_Searched("a" * n + "b" + "a" * n), 2, _CUTOFF_SHIFT, m_max)
        assert scan.per_length == {m: frozenset({"a" * m}) for m in range(_CUTOFF_SHIFT, m_max + 1)}
        shifts, chunks = m_max - _CUTOFF_SHIFT + 1, sum((2 * n + 1) // c for c in sizes)
        assert len(gallops) <= 2 * shifts + 8 * len(sizes)
        assert _Searched.finds <= 2 * chunks


class TestCertificates:
    def test_certificate_records_its_evidence(self, trib, monkeypatch):
        calls = []
        scan = oracle.scan_powers_multi
        monkeypatch.setattr(oracle, "scan_powers_multi", lambda *args: calls.append(args) or scan(*args))
        cert, scans = certified_scan(trib, 13, 3)
        assert (cert.covered_m_min, cert.covered_m_max, cert.factor_length, cert.factors) == (1, 13, 39, 79)
        assert (cert.block_level, cert.scanned_letters, cert.closure_checked_letters) == (9, 187, 187)
        assert cert.word == trib.block(9) and set(scans) == {2, 3}
        # one scan, of the shortest prefix that holds every factor of length 39, and no other
        assert [(len(args[0]), list(args[1]), args[2], args[3]) for args in calls] == [(187, [2, 3], 1, 13)]
        every = factors_of_length(cert.word, 39)
        assert len(every) == 79 and factors_of_length(cert.word[:187], 39) == every
        assert len(factors_of_length(cert.word[:186], 39)) == 78

    def test_certificate_is_stable_when_rechecked(self, trib):
        cert, scans = certified_scan(trib, 13, 2)
        bigger = generate_prefix(trib, 2 * len(cert.word))
        rescan = scan_powers(bigger, 2, 1, 13)
        assert rescan.per_length == scans[2].per_length

    def test_single_length_certificate_scans_that_length_only(self, trib, monkeypatch):
        full_cert, full = certified_scan(trib, 13, 3)
        calls = []
        scan = oracle.scan_powers_multi
        monkeypatch.setattr(oracle, "scan_powers_multi", lambda *args, **kw: calls.append(args[2:4]) or scan(*args, **kw))
        cert, scans = certified_scan(trib, 13, 3, m_min=13)
        assert calls == [(13, 13)]
        assert cert == full_cert._replace(covered_m_min=13)
        assert {l: r.per_length for l, r in scans.items()} == {l: {13: r.per_length[13]} for l, r in full.items()}
        assert certified_scan(trib, 13, 2, m_min=5)[0].covered_m_min == 5
        for m_min in (0, 14):
            with pytest.raises(RangeError, match="m_min"):
                certified_scan(trib, 13, 2, m_min=m_min)

    @staticmethod
    def work(letters: int, shifts: int, results: int, length: int) -> int:
        """A certified scan's price: `shifts` XOR shifts of each letter, `results` (order, length) results, and a
        keyed window per length-`length` window of the `letters` letters: the guard that admits exactly them."""
        return shifts * letters + results * oracle._RESULT_WORK + (letters - length + 1) * oracle._COUNT_WORK

    def test_single_length_guard_reads_that_shift_only(self, monkeypatch):
        # one XOR shift of the 106 scanned letters, one (order, length) result and 81 keyed windows of length 26
        spec = DirectiveSpec.parse("k=3; d=; 1")
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(106, 1, 1, 26))
        assert certified_scan(BlockTable(spec), 13, 2, m_min=13)[0].scanned_letters == 106
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(106, 1, 1, 26) - 1)
        with pytest.raises(GuardExceeded, match="letter-shifts"):
            certified_scan(BlockTable(spec), 13, 2, m_min=13)

    @given(st.integers(min_value=1, max_value=120_000), st.integers(min_value=0, max_value=120_000),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_the_count_reads_exactly_the_longest_prefix_the_guard_admits(self, m_min, extra, l_max):
        # a stub count that finds no factor is handed the admitted prefix, or nothing when it is shorter than k * L
        m_max = m_min + extra
        table = BlockTable(DirectiveSpec.parse("k=2; d=; 1"))
        read = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(table, "head", lambda level, size: "a" * size)
            mp.setattr(oracle, "count_factors", lambda words, *args: (read.extend(map(len, words)), (0, 0))[1])
            with pytest.raises(GuardExceeded) as refusal:
                certified_scan(table, m_max, l_max, m_min=m_min)
        if read:
            admitted = read[-1]
            assert oracle._scan_work(admitted, m_min, m_max, l_max) <= oracle._SCAN_GUARD
        else:
            admitted = 2 * l_max * m_max - 1
        past = oracle._scan_work(admitted + 1, m_min, m_max, l_max)
        assert past > oracle._SCAN_GUARD and f"costs at least {past} letter-shifts" in str(refusal.value)

    def test_certify_prefix_shortcut(self, trib):
        assert certify_prefix(trib, 13, 2).word == certified_scan(trib, 13, 2)[0].word

    def test_scan_cost_guard_trips_before_any_block_is_built(self, monkeypatch):
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"))
        # lengths up to 13 at order 2: L = 26, and a prefix with all 2L + 1 = 53 factors has at least 3L = 78 letters,
        # each read at 13 XOR shifts, with 13 (order, length) results and 53 keyed windows
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(78, 13, 13, 26) - 1)
        monkeypatch.setattr(table, "block", lambda n: pytest.fail("built a block"))
        with pytest.raises(GuardExceeded, match=f"costs at least {self.work(78, 13, 13, 26)} letter-shifts"):
            certified_scan(table, 13, 2)

    @pytest.mark.parametrize(
        "letters, highest_built",
        [
            (81, 6),  # block 7 (81 letters) lacks a factor in its first 80, built from blocks 6, 5 and 4
            (106, 7),  # block 8 holds them all in its first 106 letters, but only 105 are built, from blocks 7, 6 and 5
        ],
    )
    def test_scan_cost_guard_reads_each_short_block_and_the_prefix(self, monkeypatch, letters, highest_built):
        # one letter-shift short of `letters` letters: 13 XOR shifts of each, 13 results, a keyed window of each
        spec = DirectiveSpec.parse("k=3; d=; 1")
        cert = certified_scan(BlockTable(spec), 13, 2)[0]
        assert (cert.block_level, cert.scanned_letters) == (8, 106)
        table = BlockTable(spec)
        built = []
        block = table.block
        monkeypatch.setattr(table, "block", lambda n: built.append(n) or block(n))
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(letters, 13, 13, 26) - 1)
        with pytest.raises(GuardExceeded, match="letter-shifts"):
            certified_scan(table, 13, 2)
        assert max(built) == highest_built  # the block that reaches the admitted prefix is never built whole

    def test_scan_cost_guard_counts_every_order(self, monkeypatch):
        # the orders share the XOR shifts and the count, but each keeps a result per length, and a millionth power
        # trips at once
        spec = DirectiveSpec.parse("k=3; d=; 1")
        cert = certified_scan(BlockTable(spec), 13, 3)[0]
        work = self.work(cert.scanned_letters, 13, 2 * 13, 39)
        monkeypatch.setattr(oracle, "_SCAN_GUARD", work)
        # the guard admits exactly the 187 letters of P, so block 9 (274 letters) is built only that far
        trib = BlockTable(spec)
        at_guard = certified_scan(trib, 13, 3)[0]
        assert at_guard == cert._replace(word=at_guard.word) and at_guard.word == trib.block(9)[:187]
        monkeypatch.setattr(oracle, "_SCAN_GUARD", work - 1)
        with pytest.raises(GuardExceeded, match="orders up to 3"):
            certified_scan(BlockTable(spec), 13, 3)
        monkeypatch.undo()
        table = BlockTable(spec)
        monkeypatch.setattr(table, "block", lambda n: pytest.fail("built a block"))
        with pytest.raises(GuardExceeded, match="letter-shifts"):
            certified_scan(table, 1, 10**6)

    @pytest.mark.parametrize(
        "windows, given, highest_built",
        [
            (55, [80], 6),  # block 7 (81 letters) is built to 80, 55 windows of length 26: the count runs out one short
            (80, [81, 105], 7),  # block 8 holds the last new factor at window 80, and is built to one letter before it
        ],
    )
    def test_the_block_stream_stops_at_the_admitted_prefix(self, monkeypatch, windows, given, highest_built):
        # a guard that admits windows + 25 letters gives the count exactly `windows` windows of length 26
        spec = DirectiveSpec.parse("k=3; d=; 1")
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(106, 13, 13, 26))  # windows 0..80: block 8 is cut there
        assert certified_scan(BlockTable(spec), 13, 2)[0].scanned_letters == 106
        table = BlockTable(spec)
        built, lengths = [], []
        block, count = table.block, oracle.count_factors
        monkeypatch.setattr(table, "block", lambda n: built.append(n) or block(n))
        monkeypatch.setattr(oracle, "count_factors", lambda words, *args: count((lengths.append(len(w)) or w for w in words), *args))
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(windows + 25, 13, 13, 26))
        with pytest.raises(GuardExceeded, match=f"costs at least {self.work(windows + 26, 13, 13, 26)} letter-shifts"):
            certified_scan(table, 13, 2)
        assert lengths == given and given[-1] - 25 == windows
        assert max(built) == highest_built  # the block that reaches the admitted prefix is never built whole

    @pytest.mark.parametrize("letters", [106, 105])
    def test_the_count_reads_no_letter_past_what_the_scan_guard_admits(self, monkeypatch, letters):
        # 13 XOR shifts of each letter, 13 (order, length) results and a keyed window of each: the guard admits
        # `letters` letters, so the count may key windows 0..letters - 26; the certificate needs 106 letters, the
        # last new factor at window 80
        class Spy(str):
            def __getitem__(self, key):
                read.append(key.stop)
                return Spy(str.__getitem__(self, key))  # a cut block is a Spy too, so the count's reads are seen

        read, lengths = [], []
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"))
        block, count = table.block, oracle.count_factors
        monkeypatch.setattr(table, "block", lambda n: Spy(block(n)))
        monkeypatch.setattr(oracle, "count_factors", lambda words, *args: count((lengths.append(len(w)) or w for w in words), *args))
        monkeypatch.setattr(oracle, "_SCAN_GUARD", self.work(letters, 13, 13, 26))
        if letters == 106:
            assert certified_scan(table, 13, 2)[0].scanned_letters == 106
        else:
            with pytest.raises(GuardExceeded, match="letter-shifts"):
                certified_scan(table, 13, 2)
        assert lengths == [81, letters]  # block 7 whole, then block 8 cut at the admitted prefix
        assert max(read) == letters

    def test_extra_factors_are_refused(self, monkeypatch):
        # random letters give every window its own factor: 56 windows of length 26 in block 7, above 53
        block = BlockTable.block
        rng = random.Random(0)
        monkeypatch.setattr(BlockTable, "block", lambda self, n: "".join(rng.choice("abc") for _ in block(self, n)))
        with pytest.raises(VerificationError, match="block level 7 has 56 factors of length 26, more than the 53"):
            certified_scan(BlockTable(DirectiveSpec.parse("k=3; d=; 1")), 13, 2)

    def test_crosscheck_stops_at_its_work_cap(self, monkeypatch):
        # closing a^j scans j letters, so the 20,006 letters that hold every factor of length 6 cost about 2e8
        spec = DirectiveSpec.parse("k=2; d=20000; 1")
        cap = CLOSURE_CHECK_WORK
        checked = closure_reach(spec, cap)
        closed = list(takewhile(lambda u: u <= checked, closure_lengths(spec)))
        assert checked == 1448 and closed == list(range(checked + 1))
        assert sum(closed[:-1]) <= cap < sum(closed)  # building one letter more closes prefix `checked` too
        cert, _ = certified_scan(BlockTable(spec), 3, 2)
        assert (cert.scanned_letters, cert.closure_checked_letters) == (20006, checked)
        asked = []

        def corrupted(spec, length):
            asked.append(length)
            return closure_prefix(spec, length)[:-1] + "?"

        monkeypatch.setattr(oracle, "closure_prefix", corrupted)
        with pytest.raises(VerificationError, match=f"closure construction within {checked} letters"):
            certified_scan(BlockTable(spec), 3, 2)
        assert asked == [checked]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reference_directives_crosscheck_the_whole_prefix(self, certificates, name):
        cert = certificates[name][0]
        assert cert.closure_checked_letters == cert.scanned_letters

    def test_finite_directive_cannot_certify(self):
        # the complexity bound holds for infinite words only, however many levels a finite directive defines
        for text in ("k=2; d=1,1,1,1", "k=2; d=" + ",".join(["1"] * 30)):
            with pytest.raises(RangeError, match="finite directive"):
                certified_scan(BlockTable(DirectiveSpec.parse(text)), 5, 2)


# the last shift the XOR kernel reads at order 2: the chunk plan's last shift under _LONG_CHUNK
_LAST_XOR_SHIFT = _CUTOFF_SHIFT - 1


class TestShortShifts:
    """The XOR shifts read only P', the shortest prefix of P holding every factor of l_max times the last XOR shift.

    The default plan sends the shifts below chunk 128 (1..254 at order 2) to the XOR kernel and counts P' from
    m_max = 2 * 254 on; the other plan searches chunk 64 too (shifts 127..254), and its XOR shifts, 1..126, read a
    P' of l_max * 126 from m_max = 2 * 126 on. The certified scan runs the one priced lower, the default on a tie.
    """

    @staticmethod
    def planned(monkeypatch) -> list[tuple[int, int]]:
        """(short_letters, long_chunk) of each `scan_powers_multi` call, logged as it is called."""
        plans, scan = [], oracle.scan_powers_multi
        monkeypatch.setattr(oracle, "scan_powers_multi", lambda *args: plans.append(args[4:]) or scan(*args))
        return plans

    @pytest.mark.parametrize("m_max", [2 * _LAST_XOR_SHIFT - 1, 2 * _LAST_XOR_SHIFT])
    @pytest.mark.parametrize("l_max", [2, 3, 4])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_certified_scans_equal_a_scan_of_all_of_the_prefix(self, monkeypatch, tables, name, l_max, m_max):
        plans = self.planned(monkeypatch)
        cert, scans = certified_scan(tables[name], m_max, l_max)
        (short_letters, long_chunk), = plans
        assert short_letters == cert.short_shift_letters and long_chunk in (oracle._LONG_CHUNK, oracle._LONG_CHUNK // 2)
        last = max(hi for c, lo, hi in oracle._chunks(1, m_max, 2) if c < long_chunk)
        prefix, length, k = cert.word[:cert.scanned_letters], l_max * last, tables[name].spec.k
        if 2 * last > m_max:  # no second count: only m_max = 507 under the default plan
            assert (m_max, long_chunk, cert.short_shift_letters, cert.short_factor_length) == (507, oracle._LONG_CHUNK, cert.scanned_letters, 0)
        else:
            assert cert.short_factor_length == length
            assert len(factors_of_length(prefix[:cert.short_shift_letters], length)) == (k - 1) * length + 1
            assert len(factors_of_length(prefix[:cert.short_shift_letters - 1], length)) == (k - 1) * length
        whole = scan_powers_multi(prefix, range(2, l_max + 1), 1, m_max)
        assert {l: r.per_length for l, r in scans.items()} == {l: r.per_length for l, r in whole.items()}

    @pytest.mark.parametrize(
        "spec, m_max, length, short, long_chunk",
        [
            ("k=3; d=1,1,2; 2,1,2", 256, 252, 1093, 64),  # verified-census op A: L' = 252 of L = 512, chunk 64 searched
            ("k=3; d=; 1", 1795, 508, 2212, 128),  # op C: L' = 508 of L = 3,590, the default plan
        ],
        ids=["op A", "op C"],
    )
    def test_a_second_count_reads_only_the_certified_prefix(self, monkeypatch, spec, m_max, length, short, long_chunk):
        calls, count = [], oracle.count_factors
        monkeypatch.setattr(oracle, "count_factors", lambda words, *args: calls.append((words, args)) or count(words, *args))
        plans = self.planned(monkeypatch)
        cert, scans = certified_scan(BlockTable(DirectiveSpec.parse(spec)), m_max, 2)
        assert len(calls) == 2 and calls[0][1] == (cert.factor_length, cert.factors)
        assert plans == [(cert.short_shift_letters, long_chunk)] and (cert.short_shift_letters, cert.short_factor_length) == (short, length)
        prefix, k = cert.word[:cert.scanned_letters], DirectiveSpec.parse(spec).k
        assert calls[1] == ([prefix], (length, (k - 1) * length + 1))
        # P' is the shortest prefix holding every factor of L' letters
        assert len(factors_of_length(prefix[:short], length)) == (k - 1) * length + 1
        assert len(factors_of_length(prefix[:short - 1], length)) == (k - 1) * length
        whole = scan_powers_multi(prefix, (2,), 1, m_max)
        assert scans[2].per_length == whole[2].per_length

    @pytest.mark.parametrize(
        "spec, m_max, default, other, counted, after, long_chunk",
        [
            # op A: 254 XOR shifts of P = 7,279 and chunk 128, against chunks 64 and 128 with, before the count of
            # L' = 252 on P, no XOR shifts, and after it, the 126 XOR shifts of its P' = 1,093
            ("k=3; d=1,1,2; 2,1,2", 256, 254 * 7279 + 32 * 7279, 2 * 32 * 7279, 7279, 2 * 32 * 7279 + 126 * 1093, 64),
            # op C: 254 XOR shifts of P' = 2,212 and chunks 128 to 512 of P = 14,198. Chunks 64 to 512 and a count of
            # L' = 252 on P' are priced higher, so that count does not run
            ("k=3; d=; 1", 1795, 254 * 2212 + 3 * 32 * 14198, 4 * 32 * 14198, 2212, None, 128),
            # a^20000 b a^1199: the count of L' = 252 on the default plan's P' = 20,508 runs, and the 126 XOR shifts
            # of its own P' = 20,252 win on the shifts alone, though not with that count added
            ("k=2; d=20000; 1", 600, 254 * 20508 + 2 * 32 * 21200, 3 * 32 * 21200, 20508, 3 * 32 * 21200 + 126 * 20252, 64),
        ],
        ids=["op A", "op C", "a^20000 b"],
    )
    def test_the_plan_whose_shifts_are_priced_lower_runs(self, monkeypatch, spec, m_max, default, other, counted, after, long_chunk):
        prices, price = [], oracle._shift_work
        monkeypatch.setattr(oracle, "_shift_work", lambda *args: prices.append(price(*args)) or prices[-1])
        plans = self.planned(monkeypatch)
        certified_scan(BlockTable(DirectiveSpec.parse(spec)), m_max, 2)
        assert prices[-3:] == [default, other, after] if after else prices[-2:] == [default, other]
        assert (other + counted * oracle._COUNT_WORK < default) == (after is not None)
        assert plans[0][1] == long_chunk == (oracle._LONG_CHUNK // 2 if after and after < default else oracle._LONG_CHUNK)

    def test_a_tie_keeps_the_default_plan(self, monkeypatch):
        # op A with both plans' shifts priced alike once the chunk-64 count has run (it runs: 7,279 windows at 128
        # are below the default shifts' 10^6): the default plan runs, on P, with no second count of its own
        monkeypatch.setattr(oracle, "_shift_work", lambda letters, short_letters, m_min, m_max, long_chunk:
                            0 if long_chunk < oracle._LONG_CHUNK and not short_letters else 10**6)
        plans = self.planned(monkeypatch)
        cert = certified_scan(BlockTable(DirectiveSpec.parse("k=3; d=1,1,2; 2,1,2")), 256, 2)[0]
        assert plans == [(7279, oracle._LONG_CHUNK)] and (cert.short_shift_letters, cert.short_factor_length) == (7279, 0)

    @given(random_specs(), st.integers(min_value=2, max_value=3), st.integers(min_value=100, max_value=600), st.integers(min_value=1, max_value=300))
    @example(DirectiveSpec.parse("k=3; d=; 1"), 2, 508, 1)  # the other plan's count runs; its shifts win, but not with it added
    @example(DirectiveSpec.parse("k=2; d=1000; 1"), 3, 508, 1)
    @settings(max_examples=25, deadline=None)
    def test_the_plan_that_runs_is_never_priced_above_the_default(self, spec, l_max, m_max, m_min):
        m_min = min(m_min, m_max)
        table = BlockTable(spec)
        with pytest.MonkeyPatch.context() as mp:
            plans = self.planned(mp)
            cert, scans = certified_scan(table, m_max, l_max, m_min=m_min)
        (short_letters, long_chunk), = plans
        p, k = cert.scanned_letters, spec.k
        prefix, half = cert.word[:p], oracle._LONG_CHUNK // 2

        def short_end(letters: int, long_chunk: int) -> int:
            """The letters the XOR shifts of a plan read: P, or the P' its count finds in the first `letters`."""
            length = oracle._short_length(m_min, m_max, l_max, long_chunk)
            return count_factors([prefix[:letters]], length, (k - 1) * length + 1)[1] if length else p

        default_end = short_end(p, oracle._LONG_CHUNK)
        default = oracle._shift_work(p, default_end, m_min, m_max, oracle._LONG_CHUNK)
        if long_chunk == oracle._LONG_CHUNK:
            assert short_letters == default_end
        else:  # its shifts are priced lower, and the guard covers the default plan with this plan's count added
            counted = default_end if oracle._short_length(m_min, m_max, l_max, half) else 0
            assert long_chunk == half and short_letters == short_end(default_end, half)
            assert oracle._shift_work(p, short_letters, m_min, m_max, half) < default
            assert oracle._scan_work(p, m_min, m_max, l_max, default_end) + counted * oracle._COUNT_WORK <= oracle._SCAN_GUARD
        whole = scan_powers_multi(prefix, range(2, l_max + 1), m_min, m_max)
        assert {l: r.per_length for l, r in scans.items()} == {l: r.per_length for l, r in whole.items()}

    @pytest.mark.parametrize("change", [-1, 1])
    def test_a_second_count_off_the_complexity_is_refused(self, monkeypatch, change):
        count = oracle.count_factors

        def miscount(words, length, enough):
            found, end = count(words, length, enough)
            return (found + change, end) if length == 2 * _LAST_XOR_SHIFT else (found, end)

        monkeypatch.setattr(oracle, "count_factors", miscount)
        monkeypatch.setattr(oracle, "scan_powers_multi", lambda *args: pytest.fail("scanned"))
        with pytest.raises(VerificationError, match=f"has {1017 + change} factors of length 508 in its first 14198 letters"):
            certified_scan(BlockTable(DirectiveSpec.parse("k=3; d=; 1")), 1795, 2)

    def test_the_guard_prices_the_second_count_then_the_short_shifts(self, monkeypatch):
        # op C: P = 14,198 letters and P' = 2,212. Admission prices the second count at a window per letter of P in
        # place of the 254 XOR shifts; once P' is known, each XOR shift reads its letters. On top: 1,795 results,
        # the main count's windows of length 3,590, and the chunk search's three chunk sizes, 128 to 512
        p, short = 14198, 2212
        fixed = 1795 * oracle._RESULT_WORK + (p - 3590 + 1) * oracle._COUNT_WORK + 3 * oracle._PASS_WORK * p
        admission = fixed + p * oracle._COUNT_WORK
        total = admission + _LAST_XOR_SHIFT * short
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"))
        monkeypatch.setattr(oracle, "_SCAN_GUARD", total)
        cert = certified_scan(table, 1795, 2)[0]
        assert (cert.scanned_letters, cert.short_shift_letters) == (p, short)
        monkeypatch.setattr(oracle, "scan_powers_multi", lambda *args: pytest.fail("scanned"))
        monkeypatch.setattr(oracle, "_SCAN_GUARD", total - 1)  # P is admitted and counted, then refused
        with pytest.raises(GuardExceeded, match=f"costs at least {total} letter-shifts, above the guard {total - 1}"):
            certified_scan(table, 1795, 2)
        monkeypatch.setattr(oracle, "_SCAN_GUARD", admission - 1)  # the count runs out one letter short of P
        with pytest.raises(GuardExceeded, match=f"costs at least {admission} letter-shifts"):
            certified_scan(table, 1795, 2)

    def test_the_guard_prices_the_default_plan_and_runs_the_cheaper_one(self, monkeypatch):
        # op A: P = 7,279 letters. Admission prices the default plan: 256 results, 6,768 windows of L = 512, 254 XOR
        # shifts of P and chunk 128. The plan that searches chunk 64 too is priced lower, but its count of L' = 252
        # on P runs only when the guard covers the default plan and that count both, a window per letter of P
        default = 256_000 + 6768 * oracle._COUNT_WORK + 254 * 7279 + oracle._PASS_WORK * 7279
        table = BlockTable(DirectiveSpec.parse("k=3; d=1,1,2; 2,1,2"))
        for guard, short in ((default + 7279 * oracle._COUNT_WORK, 1093), (default + 7279 * oracle._COUNT_WORK - 1, 7279), (default, 7279)):
            monkeypatch.setattr(oracle, "_SCAN_GUARD", guard)
            cert = certified_scan(table, 256, 2)[0]
            assert (cert.scanned_letters, cert.short_shift_letters) == (7279, short)
        counts, count = [], oracle.count_factors
        monkeypatch.setattr(oracle, "count_factors", lambda *args: counts.append(args[1:]) or count(*args))
        monkeypatch.setattr(oracle, "scan_powers_multi", lambda *args: pytest.fail("scanned"))
        monkeypatch.setattr(oracle, "_SCAN_GUARD", default - 1)  # the count runs out one letter short of P
        with pytest.raises(GuardExceeded, match=f"costs at least {default} letter-shifts, above the guard {default - 1}"):
            certified_scan(table, 256, 2)
        assert counts == [(512, 1025)]  # refused before the second count and the scan


class TestIndexMeasurement:
    def test_max_fractional_power_small(self):
        assert max_fractional_power("aaaa", "a") == RationalIndex(4, 0, 1)
        assert max_fractional_power("abababa", "ab") == RationalIndex(3, 1, 2)
        assert max_fractional_power("xabay", "ab") == RationalIndex(1, 1, 2)
        with pytest.raises(NotAFactorError):
            max_fractional_power("aaaa", "b")
        with pytest.raises(RangeError):
            max_fractional_power("aaaa", "")

    def test_greatest_power_prefix_small(self):
        assert greatest_power_prefix("abababc", "ab") == "ababab"
        assert greatest_power_prefix("abaab", "ab") == "aba"
        with pytest.raises(NotAFactorError):
            greatest_power_prefix("ba", "ab")

    @pytest.mark.parametrize(
        "prefix, base",
        [
            ("xyzab", "ab"),  # base at the very end
            ("cababab", "ab"),  # run reaching the end
            ("ababa", "ab"),  # run reaching the end from the start
            ("abaabab", "ab"),  # the later run is longer
            ("aaaa", "aaaa"),  # base is the whole prefix
            ("abcabc", "ba"),  # base not a factor
            ("ab", "abc"),  # base longer than the prefix
        ],
    )
    def test_edge_cases_match_a_letter_loop(self, prefix, base):
        _check_one_shift(prefix, base)

    @given(st.text(alphabet="ab", min_size=1, max_size=80), st.data())
    @settings(max_examples=150, deadline=None)
    def test_binary_words_match_a_letter_loop(self, w, data):
        i = data.draw(st.integers(0, len(w) - 1))
        j = data.draw(st.integers(i + 1, min(len(w), i + 12)))
        _check_one_shift(w, w[i:j])
        _check_one_shift(w, w[:j - i])
        _check_one_shift(w, data.draw(st.text(alphabet="ab", min_size=1, max_size=6)))

    @given(periodic_words())
    @settings(max_examples=30, deadline=None)
    def test_periodic_words_match_a_letter_loop(self, w):
        for m in (1, 2, 5, 17, 64):
            _check_one_shift(w, w[len(w) // 3:len(w) // 3 + m])
            _check_one_shift(w, w[:m])

    @given(run_hosts())
    @example(("ababaa", "aba"))  # the longer run begins inside the last m letters of the first
    @example(("a" + "c" * 9 + "aa", "a"))  # a run just one letter longer than the best, found by the longer needle
    @settings(max_examples=200, deadline=None)
    def test_runs_of_one_base_match_a_letter_loop(self, host_and_base):
        _check_one_shift(*host_and_base)

    @pytest.mark.parametrize(
        "prefix, measured, answer",
        [
            ("abc" * 100_000, 1, RationalIndex(1, 0, 2)),  # 100,000 runs of "ab", none longer than the first
            ("abc" * 50_000 + "abababc" + "abc" * 50_000, 2, RationalIndex(3, 0, 2)),  # one longer run, midway
        ],
        ids=["no-longer-run", "one-longer-run"],
    )
    def test_only_runs_longer_than_the_best_are_measured(self, monkeypatch, prefix, measured, answer):
        calls = []
        run_end = runs._run_end
        monkeypatch.setattr(runs, "_run_end", lambda *args: calls.append(args) or run_end(*args))
        assert max_fractional_power(prefix, "ab") == answer
        assert len(calls) == measured

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_never_exceeds_the_closed_form_on_certified_prefixes(self, tables, certificates, name):
        table = tables[name]
        cert = certificates[name][0]
        for n in range(1, 7):
            measured = max_fractional_power(cert.word, table.block(n))
            assert measured <= block_index(table, n)


def _naive_power_from(w, i, m):
    """Letters of the longest factor at i with period m, one comparison at a time."""
    e = m
    while i + e < len(w) and w[i + e] == w[i + e - m]:
        e += 1
    return e


def _check_one_shift(prefix, base):
    """max_fractional_power and greatest_power_prefix agree with letter loops, refusals included."""
    m = len(base)
    found = [i for i in range(len(prefix) - m + 1) if prefix[i:i + m] == base]
    if found:
        best = max(_naive_power_from(prefix, i, m) for i in found)
        assert max_fractional_power(prefix, base) == RationalIndex(best // m, best % m, m)
    else:
        with pytest.raises(NotAFactorError):
            max_fractional_power(prefix, base)
    if prefix.startswith(base):
        assert greatest_power_prefix(prefix, base) == prefix[:_naive_power_from(prefix, 0, m)]
    else:
        with pytest.raises(NotAFactorError):
            greatest_power_prefix(prefix, base)


class TestSoundnessSample:
    def test_reported_bases_occur_literally(self, trib):
        prefix = generate_prefix(trib, 3000)
        result = scan_powers(prefix, 2, 1, 24)
        for bases in result.per_length.values():
            for w in bases:
                assert occurrences(prefix, w * 2), f"no occurrence of the square of {w!r}"


class TestRandomizedCensusAgreement:
    @given(random_specs(), st.integers(min_value=2, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_census_matches_oracle_on_random_directives(self, spec, l):
        table = BlockTable(spec)
        m_max = table.block_length(3)
        _, scans = certified_scan(table, m_max, l)
        for m in range(1, m_max + 1):
            assert frozenset(census(table, m, l).witnesses) == scans[l].per_length[m]


class TestRandomizedWitnessHost:
    @given(random_specs())
    @settings(max_examples=25, deadline=None)
    def test_one_host_measures_the_block_index_and_the_power_prefix(self, spec):
        table = BlockTable(spec)
        n = 1
        while table.block_length(host_level := witness_host_level(table, n)) <= 200_000:
            host, block = table.block(host_level), table.block(n)
            assert max_fractional_power(host, block) == block_index(table, n)
            assert greatest_power_prefix(host, block) == table.power_prefix(n + 1)
            n += 1


class TestComplexityCertificate:
    @given(random_specs(), st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_certified_scans_equal_a_scan_two_levels_up(self, spec, l_max, m_max):
        table = BlockTable(spec)
        cert, scans = certified_scan(table, m_max, l_max)
        wider = scan_powers_multi(table.block(cert.block_level + 2), range(2, l_max + 1), 1, m_max)
        for l, found in scans.items():
            assert all(same_bases(found.classes[m], wider[l].classes[m]) for m in range(1, m_max + 1))
