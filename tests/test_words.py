"""Word primitives: rotations, palindromes, stripping, Z-array, the palindrome finder, rational exponents.

Also the two-palindrome splits of `checks` and the factor count of `oracle`, their only users.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import episturm.oracle as oracle
from episturm.blocks import BlockTable
from episturm.checks import check_two_palindrome_split, two_palindrome_splits
from episturm.directive import PalindromicPrefixTable, directive_letter
from episturm.errors import CancellationError, RangeError, shorten
from episturm.oracle import count_factors
from episturm.spec import DirectiveSpec
from episturm.words import (
    RationalIndex,
    conjugacy_class,
    conjugate,
    factors_of_length,
    is_palindrome,
    reversal,
    strip_prefix,
    strip_suffix,
    longest_palindromic_suffix,
    z_array,
)

from conftest import SPEC_TEXTS, is_primitive

WORDS = st.text(alphabet="abc", min_size=0, max_size=40)
NONEMPTY = st.text(alphabet="abc", min_size=1, max_size=40)
# words over k <= 6 letters, built from runs so that long single-letter runs are common
RUN_WORDS = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.lists(st.tuples(st.sampled_from("abcdef"[:k]), st.integers(min_value=1, max_value=300)), max_size=12)
).map(lambda runs: "".join(letter * count for letter, count in runs))
# a power of a short word, cut anywhere, then mirrored onto itself about its last letter or after it:
# palindromic prefixes in long arithmetic progressions, and borders whose least period changes
PERIODIC_WORDS = st.builds(
    lambda u, cut, centre: (u * 400)[:cut] + (u * 400)[:cut][::-1][centre:],
    st.text(alphabet="abc", min_size=1, max_size=7), st.integers(min_value=0, max_value=400), st.integers(0, 1),
)
# copies far apart: u x u y u ..., with u long next to the separators, cut anywhere
COPY_WORDS = st.builds(
    lambda u, seps, cut: "".join(u + sep for sep in seps)[:cut],
    st.text(alphabet="ab", min_size=1, max_size=80), st.lists(st.text(alphabet="abc", min_size=0, max_size=6), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=800),
)
# exact powers: the words whose primitive root is shorter than themselves
POWERS = st.builds(lambda u, r: u * r, st.text(alphabet="abc", min_size=1, max_size=7), st.integers(min_value=1, max_value=50))


class TestBasics:
    def test_reversal(self):
        assert reversal("abac") == "caba"
        assert reversal("") == ""

    def test_palindrome(self):
        assert is_palindrome("abacaba")
        assert is_palindrome("")
        assert not is_palindrome("abac")

    def test_conjugate(self):
        assert conjugate("abcd", 0) == "abcd"
        assert conjugate("abcd", 1) == "bcda"
        assert conjugate("abcd", 3) == "dabc"

    def test_conjugate_range_errors(self):
        with pytest.raises(RangeError):
            conjugate("abcd", 4)
        with pytest.raises(RangeError):
            conjugate("abcd", -1)
        with pytest.raises(RangeError):
            conjugate("", 0)

    def test_conjugacy_class_primitive(self):
        assert conjugacy_class("aab") == ["aab", "aba", "baa"]

    def test_conjugacy_class_power(self):
        assert conjugacy_class("abab") == ["abab", "baba"]
        assert conjugacy_class("aaa") == ["aaa"]

    def test_strip_prefix(self):
        assert strip_prefix("abacaba", "aba") == "caba"
        assert strip_prefix("abac", "") == "abac"
        with pytest.raises(CancellationError):
            strip_prefix("abac", "ac")

    def test_strip_suffix(self):
        assert strip_suffix("abacaba", "aba") == "abac"
        assert strip_suffix("abac", "") == "abac"
        with pytest.raises(CancellationError):
            strip_suffix("abac", "ab")

    def test_factors_of_length(self):
        assert factors_of_length("abab", 2) == {"ab", "ba"}
        assert factors_of_length("abab", 4) == {"abab"}
        assert factors_of_length("abab", 5) == set()
        assert factors_of_length("abab", 0) == {""}
        with pytest.raises(RangeError):
            factors_of_length("abab", -1)

    def test_shorten_passthrough_and_elision(self):
        assert shorten("short") == "short"
        long = "x" * 100
        out = shorten(long)
        assert len(out) < 100 and "(len 100)" in out


class TestZArray:
    def test_known(self):
        assert z_array("aaaaa") == [5, 4, 3, 2, 1]
        assert z_array("aabaab") == [6, 1, 0, 3, 1, 0]
        assert z_array("") == []

    @staticmethod
    def brute(w: str) -> list[int]:
        out = []
        for i in range(len(w)):
            j = 0
            while i + j < len(w) and w[j] == w[i + j]:
                j += 1
            out.append(j)
        if out:
            out[0] = len(w)
        return out

    @given(WORDS)
    def test_matches_brute_force(self, w):
        assert z_array(w) == self.brute(w)


def palindromic_prefix_flags(w: str) -> list[bool]:
    """flags[p] says w[:p] is a palindrome, from one z-array of w, a separator and the reversal."""
    n = len(w)
    z = z_array(w + "\x00" + w[::-1])
    return [True] + [z[2 * n + 1 - p] >= p for p in range(1, n + 1)]


def reference_splits(w: str) -> list[int]:
    prefix = palindromic_prefix_flags(w)
    suffix = palindromic_prefix_flags(w[::-1])[::-1]  # suffix[p] says w[p:] is a palindrome
    return [p for p in range(len(w)) if prefix[p] and suffix[p]]


def reference_longest_suffix(w: str) -> int:
    return max(p for p, flag in enumerate(palindromic_prefix_flags(w[::-1])) if flag)


class TestPalindromeFinder:
    def test_known(self):
        assert longest_palindromic_suffix("") == 0
        assert longest_palindromic_suffix("abac") == 1
        assert longest_palindromic_suffix("abacaba") == 7
        assert longest_palindromic_suffix("aabaab") == 4
        assert two_palindrome_splits("") == []
        assert two_palindrome_splits("abacaba") == [0]
        assert two_palindrome_splits("abaab") == [1]
        assert two_palindrome_splits("ab") == [1]

    @given(st.one_of(RUN_WORDS, PERIODIC_WORDS, POWERS))
    @settings(deadline=None)
    def test_matches_the_z_array_reference(self, w):
        assert longest_palindromic_suffix(w) == reference_longest_suffix(w)
        assert two_palindrome_splits(w) == reference_splits(w)

    @pytest.mark.parametrize("name", ["tribonacci", "k4_mixed"])
    def test_blocks_split_where_the_reference_says(self, name):
        table = BlockTable(DirectiveSpec.parse(SPEC_TEXTS[name]))
        levels = [n for n in range(1, 20) if table.block_length(n) <= 1_500]
        assert [two_palindrome_splits(table.block(n)) for n in levels] == [reference_splits(table.block(n)) for n in levels]
        check_two_palindrome_split(table, levels[-1])

    @pytest.mark.parametrize(
        "w, splits",
        [
            ("a" * 200_000, list(range(200_000))),  # a root of one letter: every p splits
            ("ab" * 100_000 + "b", [199_999]),  # (ab)^(n-1) a, then bb
            ("a" * 5000 + "b" + "a" * 5000, [0]),  # 5,001 palindromic prefixes and as many suffixes
            ("baababaaba", [4, 9]),  # (baaba)^2: one split in each copy of the root
        ],
        ids=["a^n", "(ab)^n b", "a^5000 b a^5000", "baababaaba"],
    )
    def test_few_progressions_whatever_the_palindromic_prefixes(self, w, splits):
        assert two_palindrome_splits(w) == splits

    @pytest.mark.parametrize(
        "make",
        [
            lambda: "a" * 3000 + "b" + "a" * 3000 + "c",
            lambda: "ab" * 4000,
            lambda: "aab" * 3000 + "c",
            lambda: "a" * 5000 + "b" + "a" * 5001,
            lambda: tribonacci_closure_step(23),  # 900,140 letters
        ],
        ids=["a^t b a^t c", "(ab)^t", "(aab)^t c", "a^5000 b a^5001", "tribonacci step"],
    )
    def test_the_suffix_takes_a_halving_number_of_probes(self, make):
        class Probed(str):
            def find(self, *args):
                probes.append(args)
                return str.find(self, *args)

        w, probes = make(), []
        assert longest_palindromic_suffix(Probed(w)) == reference_longest_suffix(w)
        assert 1 <= len(probes) <= (len(w) - 1).bit_length() + 1  # at most ceil(log2 n) + 1, and the letters are read by find


def tribonacci_closure_step(j: int) -> str:
    """The j-th Tribonacci closure prefix and the directive letter its step closes."""
    spec = DirectiveSpec.parse(SPEC_TEXTS["tribonacci"])
    return PalindromicPrefixTable(spec).prefix(j) + directive_letter(spec, j)


class TestFactorCount:
    @given(RUN_WORDS, st.lists(st.integers(min_value=0, max_value=4000), max_size=4),
           st.integers(min_value=1, max_value=5), st.sampled_from([2, 7, 1 << 16]))
    @settings(deadline=None)
    def test_prefixes_read_on_match_the_literal_factors(self, w, cuts, length, chunk):
        # each prefix is read on from where the one before stopped; small chunks split it into many batches
        prefixes = [w[:cut] for cut in sorted(cuts)] + [w]
        first = {}
        for i in range(len(w) - length + 1):
            first.setdefault(w[i:i + length], i)
        if not first:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_COUNT_BATCH", chunk)
            found = count_factors(prefixes, length, len(first) + 1)
        assert found == (len(factors_of_length(w, length)), max(first.values()) + length)

    @given(COPY_WORDS, st.lists(st.integers(min_value=0, max_value=800), max_size=3),
           st.integers(min_value=1, max_value=40), st.sampled_from([2, 5, 1 << 16]), st.booleans())
    @settings(deadline=None)
    def test_copies_far_apart_match_the_literal_factors(self, w, cuts, length, chunk, complete):
        # small batches end in copies often, so the count proves copies, skips them and goes on across prefixes' ends
        prefixes = [w[:cut] for cut in sorted(cuts)] + [w]
        first = {}
        for i in range(len(w) - length + 1):
            first.setdefault(w[i:i + length], i)
        if not first:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_COUNT_BATCH", chunk)
            mp.setattr(oracle, "_COUNT_FLOOR", 1)
            found = count_factors(prefixes, length, len(first) + (not complete))
        assert found == (len(first), max(first.values()) + length)

    def test_stops_after_the_batch_that_has_enough(self, monkeypatch):
        monkeypatch.setattr(oracle, "_COUNT_BATCH", 4)
        # aab, aba and baa fill the first batch of four windows; the second would find bab
        assert count_factors(["aabaababab"], 3, 3) == (3, 5)
        assert count_factors(["aabaababab"], 3, 4) == (4, 8)

    class Spy(str):
        """A word that logs its reads in `log`: a slice as its (start, stop), a letter as its index."""

        def __new__(cls, word, log):
            spy = super().__new__(cls, word)
            spy.log = log
            return spy

        def __getitem__(self, key):
            self.log.append((key.start, key.stop) if isinstance(key, slice) else key)
            return str.__getitem__(self, key)

    def test_each_window_is_read_once(self, monkeypatch):
        monkeypatch.setattr(oracle, "_COUNT_BATCH", 4)
        # windows of length 3: 0..2 from the first prefix, then one batch of 3..6 from the second. Window 0's letters
        # are read whole, and every later window rolls in the letter that enters it and out the one that left: letters
        # 0..8 each enter once, in (0, 3), (3, 5), 5 and (6, 9), and 0..5 each leave once, in (0, 2), 2 and (3, 6)
        reads = []
        assert count_factors([self.Spy("aabaa", reads), self.Spy("aabaababab", reads)], 3, 4) == (4, 8)
        assert reads == [(0, 3), (0, 2), (3, 5), 2, 5, (3, 6), (6, 9)]

    def test_a_last_prefix_that_runs_out_cuts_the_batch(self, monkeypatch):
        monkeypatch.setattr(oracle, "_COUNT_BATCH", 4)
        assert count_factors(["aabaababab"[:8]], 3, 4) == (4, 8) and count_factors(["aabaababab"[:7]], 3, 4) == (3, 5)
        monkeypatch.setattr(oracle, "_COPY_LETTERS", 0)  # no proof of a copy: window 4 repeats window 1
        # bab first starts at window 5: 8 letters hold windows 0..5, so the second batch is cut to windows 4..5 and finds it
        reads = []
        assert count_factors([self.Spy("aabaababab"[:8], reads)], 3, 4) == (4, 8)
        assert reads == [(0, 3), (0, 3), (3, 6), 3, 6, (4, 5), (7, 8)]
        # 7 letters end at window 4: the count reads it alone and returns its 3 factors, short of 4, without raising
        reads = []
        assert count_factors([self.Spy("aabaababab"[:7], reads)], 3, 4) == (3, 5)
        assert reads == [(0, 3), (0, 3), (3, 6), 3, 6, (4, 4), (7, 7)]

    def test_a_batch_reads_no_more_letters_than_it_keys_windows(self, monkeypatch):
        # factors longer than a batch: past the first window's letters, each slice holds fewer than 4 letters. With
        # no proof of a copy, which reads a window afresh, the count keys every window up to the last factor
        monkeypatch.setattr(oracle, "_COUNT_BATCH", 4)
        w = BlockTable(DirectiveSpec.parse("k=2; d=; 1")).block(8)
        first = {}
        for i in range(len(w) - 9 + 1):
            first.setdefault(w[i:i + 9], i)
        assert count_factors([w], 9, 10) == (10, 21)
        monkeypatch.setattr(oracle, "_COPY_LETTERS", 0)
        reads = []
        assert count_factors([self.Spy(w, reads)], 9, 10) == (10, max(first.values()) + 9) == (10, 21)
        slices = [read for read in reads if isinstance(read, tuple)]
        assert slices[0] == (0, 9) and max(stop - start for start, stop in slices[1:]) == 3

    @staticmethod
    def keyed(monkeypatch) -> list[list[int]]:
        """The keys `count_factors` rolls, one list per batch, logged as it makes them."""
        batches, accumulate = [], oracle.accumulate
        monkeypatch.setattr(oracle, "accumulate", lambda *args, **kw: batches.append(list(accumulate(*args, **kw))) or batches[-1])
        return batches

    @pytest.mark.parametrize("length", [1, 4, 300, 5000])
    @pytest.mark.parametrize("w", ["a" * 100_000 + "b" + "aaa", "ab" * 50_000 + "b"], ids=["a^n b aaa", "(ab)^n b"])
    def test_a_periodic_stretch_is_jumped_over(self, monkeypatch, w, length):
        # the first batch repeats with period 1 or 2: the letters prove the stretch periodic up to the b, and the
        # count keys only that batch and the windows after the stretch
        first = {}
        for i in range(len(w) - length + 1):
            first.setdefault(w[i:i + length], i)
        batches = self.keyed(monkeypatch)
        assert count_factors([w], length, len(first) + 1) == (len(first), max(first.values()) + length)
        assert len(batches) <= 2 and sum(map(len, batches)) <= 2 * oracle._COUNT_FLOOR

    def test_a_count_keys_at_most_a_small_batch_past_its_last_factor(self, monkeypatch):
        # op C of the verified-census benchmark: Tribonacci lengths 1..1795 at order 2, so L = 3,590. The last batch
        # holds the window of the last new factor and at most 2^8 - 1 windows after it; copies of earlier windows
        # are skipped, so the count keys fewer than the 10,609 windows up to that factor
        w = BlockTable(DirectiveSpec.parse(SPEC_TEXTS["tribonacci"])).block(16)  # 19,513 letters
        batches = self.keyed(monkeypatch)
        found, end = count_factors([w], 3590, 2 * 3590 + 1)
        assert (found, end) == (7181, 14198)
        last = int("".join(f"{ord(x):08x}" for x in w[end - 3590:end]), 16) % oracle._FACTOR_MODULUS
        assert last in batches[-1][-oracle._COUNT_FLOOR:]
        assert sum(map(len, batches)) < end - 3590 + 1

    def test_op_a_keys_few_windows_past_the_copies(self, monkeypatch):
        # verified-census op A: k3_mixed lengths 1..256 at order 2, so L = 512. P has 7,279 letters and 6,768
        # windows, and only windows 0..841, 2,138..2,308 and 6,756..6,767 are new factors: the rest are copies
        batches, keyed, count = self.keyed(monkeypatch), [], oracle.count_factors
        monkeypatch.setattr(oracle, "count_factors", lambda *args: (count(*args), keyed.append(sum(map(len, batches))))[0])
        cert = oracle.certified_scan(BlockTable(DirectiveSpec.parse(SPEC_TEXTS["k3_mixed"])), 256, 2)[0]
        assert (cert.factor_length, cert.scanned_letters) == (512, 7279) and keyed[0] <= 2000

    @pytest.mark.parametrize("rate", [2, 10**6])
    def test_proofs_of_copies_read_a_bounded_share_per_window_keyed(self, monkeypatch, rate):
        # a random binary word has all 256 factors of 8 letters early, and then every window repeats one, but its
        # copies are short: proved after every batch of 4 windows, each proof would skip only 1 or 2 windows. Each
        # proof is charged 2L and the keys it scans for its window's first batch, and starts only while the credit
        # is above 0
        rng, length = random.Random(1), 8
        w = "".join(rng.choice("ab") for _ in range(3000))
        first = {}
        for i in range(len(w) - length + 1):
            first.setdefault(w[i:i + length], i)
        monkeypatch.setattr(oracle, "_COUNT_BATCH", 4)
        monkeypatch.setattr(oracle, "_COUNT_FLOOR", 1)
        monkeypatch.setattr(oracle, "_COPY_LETTERS", rate)
        batches, proofs, run_end = self.keyed(monkeypatch), [], oracle._run_end
        monkeypatch.setattr(oracle, "_run_end", lambda *args: proofs.append(args) or run_end(*args))
        assert count_factors([w], length, len(first) + 1) == (len(first), max(first.values()) + length) == (256, 1225)
        keyed = sum(map(len, batches))
        assert len(proofs) * 2 * length <= rate * keyed + 2 * length + 4
        assert (len(proofs), keyed) == ((37, 2907) if rate == 2 else (792, 1508))  # unbounded, the proofs skip more

    @pytest.mark.parametrize("seed", range(6))
    def test_each_rolled_key_is_its_windows_hash(self, monkeypatch, seed):
        # random words have no periodic batch, so the count keys every window in order; a length past 2^12 keys
        # its first window in pieces
        rng = random.Random(seed)
        length = rng.choice([1, 2, 7, 300, 4099])
        w = "".join(rng.choice("abcz") for _ in range(length + rng.randrange(1, 700)))
        batches = self.keyed(monkeypatch)
        count_factors([w], length, len(w) + 1)

        digits = [f"{ord(x):08x}" for x in w]  # each letter a base-2^32 digit, written in hexadecimal
        keys = [int("".join(digits[i:i + length]), 16) % oracle._FACTOR_MODULUS for i in range(len(w) - length + 1)]
        assert [k for batch in batches for k in batch] == keys

    def test_the_modulus_keys_base_2_32_without_short_cycles(self):
        sympy = pytest.importorskip("sympy")
        q = oracle._FACTOR_MODULUS
        assert 1 << 60 < q < 1 << 61 and sympy.isprime(q) and oracle._FACTOR_BASE == 1 << 32
        assert sympy.n_order(2, q) > 1 << 40  # so B^L mod q does not cycle over any length the count reaches
        assert min(pow(2, 64, q), q - pow(2, 64, q)) > 1 << 32


class TestRotationProperties:
    @given(NONEMPTY, st.integers(min_value=0, max_value=39))
    def test_conjugate_is_involution_through_length(self, w, j):
        j %= len(w)
        assert conjugate(conjugate(w, j), (len(w) - j) % len(w)) == w

    @given(NONEMPTY)
    def test_class_size_divides_length(self, w):
        cls = conjugacy_class(w)
        assert len(w) % len(cls) == 0
        assert is_primitive(w) == (len(cls) == len(w))


class TestRationalIndex:
    def test_normalization(self):
        r = RationalIndex(2, 7, 4)
        assert (r.whole, r.num, r.den) == (3, 3, 4)

    def test_equality_by_fields(self):
        assert RationalIndex(2, 1, 4) == RationalIndex(2, 1, 4)
        assert RationalIndex(2, 1, 4) != RationalIndex(2, 1, 8)

    @given(*2 * (st.integers(-3, 3), st.integers(-30, 30), st.integers(1, 12)))
    @settings(max_examples=300, deadline=None)
    def test_ordering_is_by_value(self, w1, n1, d1, w2, n2, d2):
        """Negative numerators, mixed denominators, equal values over different bases: all four operators as Fractions."""
        assert RationalIndex(2, 1, 4) < RationalIndex(2, 3, 4)
        assert RationalIndex(2, 1, 4) <= RationalIndex(2, 2, 8)
        assert RationalIndex(2, 2, 8) >= RationalIndex(2, 1, 4)
        assert RationalIndex(3, 0, 1) > RationalIndex(2, 3, 4)
        a, b = RationalIndex(w1, n1, d1), RationalIndex(w2, n2, d2)
        x, y = a.as_fraction(), b.as_fraction()
        assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)

    def test_as_fraction_and_str(self):
        from fractions import Fraction

        assert RationalIndex(2, 3, 4).as_fraction() == Fraction(11, 4)
        assert str(RationalIndex(2, 3, 4)) == "2 + 3/4"
        assert str(RationalIndex(3, 0, 7)) == "3"

    def test_bad_denominator(self):
        with pytest.raises(RangeError):
            RationalIndex(1, 0, 0)

    def test_replace_normalizes(self):
        assert RationalIndex(2, 1, 4)._replace(num=5) == RationalIndex(3, 1, 4)
        with pytest.raises(RangeError):
            RationalIndex(2, 1, 4)._replace(den=0)
