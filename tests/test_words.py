"""Word primitives: rotations, palindromes, stripping, Z-array, the palindrome finders, the factor count, rational exponents."""

import pytest
from hypothesis import given, settings, strategies as st

import episturm.words as words
from episturm.blocks import BlockTable
from episturm.checks import check_two_palindrome_split
from episturm.directive import DirectiveSpec, PalindromicPrefixTable, directive_letter
from episturm.errors import CancellationError, GuardExceeded, RangeError
from episturm.words import (
    RationalIndex,
    conjugacy_class,
    conjugate,
    count_factors,
    factors_of_length,
    is_palindrome,
    is_primitive,
    reversal,
    shorten,
    strip_prefix,
    strip_suffix,
    longest_palindromic_suffix,
    two_palindrome_splits,
    z_array,
)

from conftest import SPEC_TEXTS

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

    def test_is_primitive(self):
        assert is_primitive("a")
        assert is_primitive("ab")
        assert is_primitive("aab")
        assert not is_primitive("abab")
        assert not is_primitive("aaa")
        with pytest.raises(RangeError):
            is_primitive("")

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

    @given(st.one_of(RUN_WORDS, PERIODIC_WORDS))
    @settings(deadline=None)
    def test_matches_the_z_array_reference(self, w):
        assert longest_palindromic_suffix(w) == reference_longest_suffix(w)
        assert two_palindrome_splits(w) == reference_splits(w)
        flags = palindromic_prefix_flags(w)
        progressions = words._palindromic_prefix_progressions(w)
        members = [p for top, step, low in progressions for p in range(top, low - 1, -step)]
        assert members == [p for p in range(len(w), 0, -1) if flags[p]]  # each once, longest first
        for (top, step, low), below in zip(progressions, [*progressions[1:], (0,)]):
            assert step <= low <= top and (top - low) % step == 0
            assert 2 * below[0] < top  # the next largest at most halves, so floor(log2 n) + 1 progressions at most
        assert len(progressions) <= len(w).bit_length()

    @pytest.mark.parametrize("name", ["tribonacci", "k4_mixed"])
    def test_blocks_split_where_the_reference_says(self, name):
        table = BlockTable(DirectiveSpec.parse(SPEC_TEXTS[name]))
        levels = [n for n in range(1, 20) if table.block_length(n) <= 1_500]
        assert [two_palindrome_splits(table.block(n)) for n in levels] == [reference_splits(table.block(n)) for n in levels]
        check_two_palindrome_split(table, levels[-1])

    @pytest.mark.parametrize(
        "w, splits",
        [
            ("a" * 200_000, list(range(200_000))),  # 200,001 palindromic prefixes in one progression
            ("ab" * 100_000 + "b", [199_999]),  # (ab)^(n-1) a, then bb
            ("a" * 5000 + "b" + "a" * 5000, [0]),  # 5,001 palindromic prefixes and as many suffixes
            # the reversal's abaaba has borders 6 and 3 of period 3, and aba's border is 1, not 3 - 3
            ("baababaaba", [4, 9]),
        ],
        ids=["a^n", "(ab)^n b", "a^5000 b a^5000", "baababaaba"],
    )
    def test_few_progressions_whatever_the_palindromic_prefixes(self, w, splits, monkeypatch):
        calls = []
        finder = words.longest_palindromic_suffix
        monkeypatch.setattr(words, "longest_palindromic_suffix", lambda u: calls.append(len(u)) or finder(u))
        assert two_palindrome_splits(w) == splits
        probes = len(calls)
        progressions = words._palindromic_prefix_progressions(w) + words._palindromic_prefix_progressions(w[::-1])
        assert len(progressions) <= 2 * (len(w) - 1).bit_length() + 2  # 2 ceil(log2 n) + 2 over w and its reversal
        # each side finds its longest palindromic prefix, then the border of each progression's largest and smallest
        assert probes <= 2 * len(progressions) + 2

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
            mp.setattr(words, "_COUNT_BATCH", chunk)
            found = count_factors(prefixes, length, len(first) + 1, len(w))
        assert found == (len(factors_of_length(w, length)), max(first.values()) + length)

    def test_stops_after_the_batch_that_has_enough(self, monkeypatch):
        monkeypatch.setattr(words, "_COUNT_BATCH", 4)
        # aab, aba and baa fill the first batch of four windows; the second would find bab
        assert count_factors(["aabaababab"], 3, 3, 4) == (3, 5)
        assert count_factors(["aabaababab"], 3, 4, 8) == (4, 8)

    def test_each_window_is_read_once(self, monkeypatch):
        class Spy(str):
            def __getitem__(self, key):
                reads.append((key.start, key.stop))
                return str.__getitem__(self, key)

        reads = []
        monkeypatch.setattr(words, "_COUNT_BATCH", 4)
        # windows of length 3: 0..2 from the first prefix, then one batch of 3..6 from the second
        assert count_factors([Spy("aabaa"), Spy("aabaababab")], 3, 4, 7) == (4, 8)
        assert reads == [(0, 5), (3, 9)]

    def test_the_budget_cuts_the_batch_that_reaches_it(self, monkeypatch):
        class Spy(str):
            def __getitem__(self, key):
                reads.append((key.start, key.stop))
                return str.__getitem__(self, key)

        monkeypatch.setattr(words, "_COUNT_BATCH", 4)
        # bab first starts at window 5: a budget of 6 windows cuts the second batch to windows 4..5 and finds it
        reads = []
        assert count_factors([Spy("aabaababab")], 3, 4, 6) == (4, 8)
        assert reads == [(0, 6), (4, 8)]
        # a budget of 5 reads window 4 alone, then refuses window 5 before reading it
        reads = []
        with pytest.raises(GuardExceeded, match="budget of 5 windows"):
            count_factors([Spy("aabaababab")], 3, 4, 5)
        assert reads == [(0, 6), (4, 7)]


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

    def test_ordering_is_by_value(self):
        assert RationalIndex(2, 1, 4) < RationalIndex(2, 3, 4)
        assert RationalIndex(2, 1, 4) <= RationalIndex(2, 2, 8)
        assert RationalIndex(2, 2, 8) >= RationalIndex(2, 1, 4)
        assert RationalIndex(3, 0, 1) > RationalIndex(2, 3, 4)

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
