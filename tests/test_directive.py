"""Directive parsing, exponent indexing, and the palindromic-closure construction."""

import math
from itertools import takewhile

import pytest
from hypothesis import given, strategies as st

from episturm.directive import (
    PalindromicPrefixTable,
    closure_lengths,
    closure_prefix,
    closure_reach,
    directive_letter,
    entry_increments,
    exponent_sum,
    block_letter,
    next_same_letter,
    palindromic_closure,
    prefix_increment,
    previous_same_letter,
)
from episturm.errors import ParseError, RangeError
from episturm.spec import DirectiveSpec, exponent

TRIB = DirectiveSpec.parse("k=3; d=; 1")
FIB = DirectiveSpec.parse("k=2; d=; 1")
MIX3 = DirectiveSpec.parse("k=3; d=1,1,2; 2,1,2")


def morphism(a: str, w: str) -> str:
    """Reference: the image of w under the map fixing a and sending every other letter x to ax."""
    return "".join(c if c == a else a + c for c in w)


# reference directives, long runs of one letter, and finite directives
CLOSURE_SPECS = [
    "k=3; d=; 1",
    "k=2; d=; 1",
    "k=3; d=1,1,2; 2,1,2",
    "k=4; d=2,1,3,1; 2,2",
    "k=2; d=40; 1",
    "k=2; d=900; 1",
    "k=3; d=1,900; 2",
    "k=2; d=1,2",
    "k=2; d=2",
    "k=3; d=5",
    "k=3; d=1,1,1,1,7",
]


def reference_closure_work(spec, length, limit):
    """The closure-work loop `closure_reach` replaced: |u_j| summed over the steps that build `length` letters, stopping once past limit."""
    work = 0
    for u in closure_lengths(spec):
        if u >= length or work > limit:
            break
        work += u
    return work


def counting_closure(spec, budget):
    """Close the actual words until `budget` letters are scanned: the lengths |u_1|, |u_2|, ... and whether the directive ran out."""
    w, scanned, lengths, i = "", 0, [0], 1
    while scanned <= budget:
        try:
            x = directive_letter(spec, i)
        except RangeError:
            return lengths, True
        scanned += len(w)  # a closure step scans the prefix it closes
        w = palindromic_closure(w + x)
        lengths.append(len(w))
        i += 1
    return lengths, False


def scanned_to_build(lengths, length):
    """Letters the closure scans to build `length` letters: every prefix shorter than it is closed once."""
    return sum(u for u in lengths if u < length)


class TestParsing:
    def test_round_trip(self):
        for text in ("k=3; d=1,1,2; 2,1,2", "k=2; d=; 1", "k=4; d=2,1,3,1; 2,2"):
            spec = DirectiveSpec.parse(text)
            assert DirectiveSpec.parse(spec.to_text()) == spec

    def test_fields(self):
        assert MIX3.alphabet == "abc"
        assert MIX3.preperiod == (1, 1, 2)
        assert MIX3.period == (2, 1, 2)
        assert MIX3.k == 3

    def test_finite_directive(self):
        spec = DirectiveSpec.parse("k=2; d=1,2,1")
        assert spec.period == ()
        assert exponent(spec, 3) == 1
        with pytest.raises(RangeError):
            exponent(spec, 4)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "k=3",
            "k=3; d=1; 2; 3; 4",
            "j=3; d=; 1",
            "k=x; d=; 1",
            "k=3; e=; 1",
            "k=3; d=; x",
            "k=3; d=1,0; 1",
            "k=3; d=-1; 1",
            "k=1; d=; 1",
            "k=27; d=; 1",
            "k=3; d=; ",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            DirectiveSpec.parse(bad)

    def test_make_guards_alphabet_size(self):
        with pytest.raises(ParseError):
            DirectiveSpec.make(1, (), (1,))
        spec = DirectiveSpec.make(26, (), (1,))
        assert spec.alphabet[-1] == "z"

    def test_replace_validates(self):
        assert MIX3._replace(period=(1,)) == DirectiveSpec.parse("k=3; d=1,1,2; 1")
        with pytest.raises(ParseError):
            MIX3._replace(period=(2, 0))


class TestExponents:
    def test_periodic_indexing(self):
        # preperiod 1,1,2 then period 2,1,2 repeating
        values = [exponent(MIX3, i) for i in range(1, 10)]
        assert values == [1, 1, 2, 2, 1, 2, 2, 1, 2]

    def test_sum_prefix(self):
        assert [exponent_sum(MIX3, n) for n in range(0, 7)] == [0, 1, 2, 4, 6, 7, 9]
        with pytest.raises(RangeError):
            exponent_sum(MIX3, -1)

    def test_letters_cycle(self):
        assert [block_letter(MIX3, i) for i in range(1, 7)] == ["a", "b", "c", "a", "b", "c"]

    def test_directive_letter_expansion(self):
        # exponents 1,1,2,2,... expand to a b cc aa ...
        assert [directive_letter(MIX3, i) for i in range(1, 7)] == ["a", "b", "c", "c", "a", "a"]

    def test_same_letter_navigation(self):
        # positions:  1=a 2=b 3=c 4=c 5=a 6=a 7=b 8=c 9=c
        assert previous_same_letter(MIX3, 1) is None
        assert previous_same_letter(MIX3, 4) == 3
        assert previous_same_letter(MIX3, 5) == 1
        assert next_same_letter(MIX3, 1) == 5
        assert next_same_letter(MIX3, 3) == 4
        assert next_same_letter(MIX3, 4) == 8


class TestClosure:
    def test_palindromic_closure_known(self):
        assert palindromic_closure("") == ""
        assert palindromic_closure("ab") == "aba"
        assert palindromic_closure("abac") == "abacaba"
        assert palindromic_closure("aba") == "aba"
        assert palindromic_closure("abca") == "abcacba"

    @staticmethod
    def brute(w: str) -> str:
        for i in range(len(w)):
            cand = w + w[:i][::-1]
            if cand == cand[::-1]:
                return cand
        return w

    @given(st.text(alphabet="ab", min_size=1, max_size=30))
    def test_closure_matches_brute(self, w):
        got = palindromic_closure(w)
        assert got == self.brute(w)
        assert got == got[::-1] and got.startswith(w)

    def test_prefix_table_recurrence(self):
        table = PalindromicPrefixTable(TRIB)
        assert table.prefix(1) == ""
        assert table.prefix(2) == "a"
        assert table.prefix(3) == "aba"
        assert table.prefix(4) == "abacaba"
        # each prefix is the closure of the previous one plus the next letter
        for j in range(1, 8):
            grown = palindromic_closure(table.prefix(j) + directive_letter(TRIB, j))
            assert grown == table.prefix(j + 1)

    def test_prefix_of_length_is_the_shortest_long_enough(self):
        table = PalindromicPrefixTable(TRIB)
        assert table.prefix_of_length(0) == ""
        got = [table.prefix_of_length(n) for n in (1, 2, 3, 4, 7, 8)]
        assert got == ["a", "aba", "aba", "abacaba", "abacaba", "abacabaabacaba"]

    def test_increment_word_recurrence(self):
        table = PalindromicPrefixTable(TRIB)
        for j in range(1, 9):
            assert table.prefix(j + 1) == prefix_increment(TRIB, j - 1) + table.prefix(j)

    @pytest.mark.parametrize("text", ["k=2; d=1,2; 3", "k=4; d=2,1,3,1; 2,2", "k=2; d=40; 1"])
    def test_increment_composes_each_run_as_one_power(self, text):
        spec = DirectiveSpec.parse(text)
        n = 0
        while n < 48 and len(prefix_increment(spec, n)) < 5_000:
            one_by_one = directive_letter(spec, n + 1)
            for i in range(n, 0, -1):
                one_by_one = morphism(directive_letter(spec, i), one_by_one)
            assert prefix_increment(spec, n) == one_by_one
            n += 1
        assert n > 15

    @given(
        st.integers(min_value=2, max_value=6),
        st.lists(st.integers(min_value=1, max_value=3), max_size=4),
        st.lists(st.integers(min_value=1, max_value=3), max_size=4),
    )
    def test_entry_increments_compose_one_entry_at_a_time(self, k, preperiod, period):
        if not preperiod and not period:
            preperiod = [1]
        spec = DirectiveSpec.make(k, tuple(preperiod), tuple(period))
        increments = entry_increments(spec)
        for n in range(12 if period else len(preperiod)):
            # the image of entry n + 1's letter under the morphisms of the letters before it, applied one by one
            one_by_one = block_letter(spec, n + 1)
            for i in range(exponent_sum(spec, n), 0, -1):
                one_by_one = morphism(directive_letter(spec, i), one_by_one)
            assert next(increments) == one_by_one
            if period and len(one_by_one) > 5_000:  # the reference rewrites the image once a letter
                break
        if not period:  # a finite directive has no letter after its last entry
            with pytest.raises(RangeError):
                next(increments)

    @pytest.mark.parametrize("spec", [TRIB, FIB, MIX3, DirectiveSpec.parse("k=2; d=40; 1"), DirectiveSpec.parse("k=2; d=1,2")])
    def test_closure_lengths_follow_the_closure(self, spec):
        table = PalindromicPrefixTable(spec)
        lengths = list(takewhile(lambda u: u < 10**5, closure_lengths(spec)))
        assert lengths == [len(table.prefix(j)) for j in range(1, len(lengths) + 1)]
        for length in range(0, lengths[-1] + 1, max(1, lengths[-1] // 97)):
            reached = next(j for j, u in enumerate(lengths) if u >= length)
            assert reference_closure_work(spec, length, 10**12) == sum(lengths[:reached])

    @pytest.mark.parametrize("text", CLOSURE_SPECS)
    def test_closure_reach_matches_a_counting_closure(self, text):
        spec = DirectiveSpec.parse(text)
        lengths, finite = counting_closure(spec, 1 << 16)
        sums = [sum(lengths[:j + 1]) for j in range(len(lengths))]
        top = math.inf if finite else sums[-1]  # an unfinished closure knows the reach of smaller budgets only
        for work in sorted({0, 1, 2, 7, 52, 1000, 1 << 25} | {w + d for w in sums for d in (-1, 0, 1)}):
            if not 0 <= work < top:
                continue
            reach = closure_reach(spec, work)
            if reach == math.inf:
                assert finite and scanned_to_build(lengths, 10**30) <= work
            else:
                assert scanned_to_build(lengths, reach) <= work < scanned_to_build(lengths, reach + 1), work
        probes = {u + d for u in lengths for d in (-1, 0, 1) if u + d >= 0} | ({10**30} if finite else set())
        for work in (0, 1, 2, 7, 52, 1000):
            reach = closure_reach(spec, work)
            for length in probes:
                if finite or length <= lengths[-1]:
                    assert (scanned_to_build(lengths, length) <= work) == (length <= reach), (work, length)

    @given(
        st.integers(2, 4),
        st.lists(st.integers(1, 60), max_size=6),
        st.lists(st.integers(1, 4), max_size=4),
        st.integers(0, 1 << 14),
        st.integers(0, 4_000),
    )
    def test_closure_reach_on_random_directives(self, k, preperiod, period, work, length):
        if not preperiod and not period:
            period = [1]
        spec = DirectiveSpec.make(k, tuple(preperiod), tuple(period))
        lengths, finite = counting_closure(spec, 1 << 15)
        if finite or length <= lengths[-1]:
            assert (scanned_to_build(lengths, length) <= work) == (length <= closure_reach(spec, work))
        assert (reference_closure_work(spec, length, work) <= work) == (length <= closure_reach(spec, work))

    @pytest.mark.parametrize("text", CLOSURE_SPECS + ["k=2; d=1000000000; 1", "k=5; d=; 1", "k=2; d=; 900"])
    @pytest.mark.parametrize("work", [0, 1, 7, 52, 1000, 1 << 20, 1 << 25])
    def test_closure_reach_agrees_with_the_replaced_loop(self, text, work):
        spec = DirectiveSpec.parse(text)
        reach = closure_reach(spec, work)
        lengths = list(takewhile(lambda u: u <= min(reach, 10**7), closure_lengths(spec)))
        sample = lengths[::max(1, len(lengths) // 100)] + lengths[-30:]
        probes = {0, 1, 10**30} | {u + d for u in sample for d in (-1, 0, 1) if u + d >= 0}
        for length in probes:
            assert (reference_closure_work(spec, length, work) <= work) == (length <= reach), length

    def test_closure_reach_at_the_edges(self):
        # 28 to 51 letters of the Tribonacci word close prefixes of 0, 1, 3, 7, 14 and 27 letters
        assert closure_reach(TRIB, 52) == 51
        assert closure_reach(TRIB, 51) == 27
        assert closure_reach(TRIB, 0) == 1
        # closing a^j for j up to 1,447 scans 1,047,628 letters, a^1448 one more prefix
        long_run = DirectiveSpec.parse("k=2; d=20000; 1")
        assert closure_reach(long_run, 1 << 20) == 1448
        assert closure_reach(DirectiveSpec.parse("k=2; d=1000000000; 1"), 1 << 25) == 8192
        # a finite directive that the budget covers to its end leaves every length in reach
        finite = DirectiveSpec.parse("k=2; d=1,2")  # prefixes of 0, 1, 3 and 5 letters
        assert closure_reach(finite, 9) == math.inf
        assert closure_reach(finite, 8) == 5
        assert closure_reach(finite, 3) == 3
        assert closure_reach(DirectiveSpec.parse("k=2; d=2"), 1) == 2

    def test_closure_reach_stops_past_the_budget(self):
        # one run of 10^9 letters: the closure would scan about 5 * 10^17 letters
        spec = DirectiveSpec.parse("k=2; d=1000000000; 1")
        reach = closure_reach(spec, 1 << 25)
        assert sum(range(reach)) <= 1 << 25 < sum(range(reach + 1))

    def test_closure_prefix_known_words(self):
        assert closure_prefix(FIB, 21) == "abaababaabaababaababa"
        assert closure_prefix(TRIB, 31) == "abacabaabacababacabaabacabacaba"
        assert closure_prefix(TRIB, 0) == ""

    def test_closure_prefix_finite_directive_runs_out(self):
        spec = DirectiveSpec.parse("k=2; d=1,1")
        with pytest.raises(RangeError):
            closure_prefix(spec, 1000)

    def test_a_finite_directive_has_exactly_its_letters(self):
        # the position search stays within a finite directive's entries: `d=5` has letters 3..5,
        # and `d=1,1,1,1,1` has no sixth letter to close a 20th letter of the word with
        run = DirectiveSpec.parse("k=3; d=5")
        assert [directive_letter(run, i) for i in range(1, 6)] == ["a"] * 5
        assert closure_prefix(run, 5) == "aaaaa"
        alternating = DirectiveSpec.parse("k=2; d=1,1,1,1,1")
        assert closure_prefix(alternating, 19) == "abaababaabaababaaba"
        for spec, past in ((run, 6), (alternating, 6)):
            with pytest.raises(RangeError, match=f"position {past} is past its end"):
                directive_letter(spec, past)
        with pytest.raises(RangeError):
            closure_prefix(alternating, 20)
