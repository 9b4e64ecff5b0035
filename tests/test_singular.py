"""Factor partitions: singular classes, their invariants, and ground truth."""

import pytest
from hypothesis import given, settings, strategies as st

import episturm.singular as singular_module
from episturm.blocks import BlockTable
from episturm.errors import InvariantViolation, RangeError
from episturm.singular import classify_factor, factor_partition, singular_window, singular_words
from episturm.spec import DirectiveSpec
from episturm.words import factors_of_length, is_palindrome, reversal, strip_suffix

from conftest import ALL_NAMES


@pytest.fixture(scope="module")
def trib(tables):
    return tables["tribonacci"]


class TestKnownValues:
    def test_level_one(self, trib):
        assert singular_words(trib, 1, 1) == frozenset({"aa"})
        assert singular_words(trib, 1, 2) == frozenset({"ac", "ca"})

    def test_level_two(self, trib):
        assert singular_words(trib, 2, 1) == frozenset({"abab", "baba"})
        assert singular_words(trib, 2, 2) == frozenset({"aaba", "abaa", "baab"})

    def test_windows(self, trib):
        assert singular_window(trib, 2, 1) == "ababa"
        assert singular_window(trib, 2, 2) == "abaaba"

    def test_bounds(self, trib):
        with pytest.raises(RangeError):
            singular_window(trib, 0, 1)
        with pytest.raises(RangeError):
            singular_window(trib, 2, 0)
        with pytest.raises(RangeError):
            singular_window(trib, 2, 3)
        with pytest.raises(RangeError):
            factor_partition(trib, 0)


class TestShallowLevelForms:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_window_agrees_with_power_prefix_form(self, tables, name):
        # for levels at or below the kind, the window has a closed alternate form
        table = tables[name]
        k = table.spec.k
        for r in range(1, k):
            for n in range(1, r + 1):
                window = singular_window(table, n, r)
                pp = table.power_prefix(n)
                if n < r:
                    joint = table.spec.alphabet[(n - r) % k]
                    alt = pp + joint + pp
                else:
                    alt = strip_suffix(pp, table.palindromic_prefix(0)) + pp
                assert window == alt


class TestPartitionInvariants:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_classes_disjoint_sized_and_reversal_closed(self, tables, name):
        table = tables[name]
        k = table.spec.k
        for n in range(1, 7):
            part = factor_partition(table, n)
            size = table.block_length(n)
            assert len(part.rotations) == size
            seen: set = set()
            for r in range(1, k):
                cls = part.singular[r]
                assert len(cls) == size - table.palindromic_prefix_length(n - r) - 1
                assert not (cls & part.rotations)
                assert not (cls & seen)
                seen |= cls
                assert {reversal(w) for w in cls} == set(cls)
            assert {reversal(w) for w in part.rotations} == set(part.rotations)
            assert part.total_count() == (k - 1) * size + 1
            assert 1 + len(part.singular) == k

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_union_equals_all_factors_of_that_length(self, tables, name):
        # ground truth for levels up to 8, against a prefix that provably
        # contains every factor of the matching length (checked by count)
        table = tables[name]
        k = table.spec.k
        for n in range(1, 9):
            part = factor_partition(table, n)
            union = set(part.rotations)
            for cls in part.singular.values():
                union |= cls
            host = table.block(n + k)
            actual = factors_of_length(host, table.block_length(n))
            assert len(actual) == (k - 1) * table.block_length(n) + 1, "host prefix too short"
            assert actual == union

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_positive_separation(self, tables, certificates, name):
        # consecutive occurrences of a singular word never overlap or touch
        table = tables[name]
        host = certificates[name][0].word
        for n in range(1, 7):
            part = factor_partition(table, n)
            for cls in part.singular.values():
                for w in cls:
                    prev = host.find(w)
                    pos = host.find(w, prev + 1)
                    while pos != -1:
                        assert pos - prev > len(w)
                        prev, pos = pos, host.find(w, pos + 1)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_singular_squares(self, tables, certificates, name):
        table = tables[name]
        host = certificates[name][0].word
        for n in range(1, 7):
            part = factor_partition(table, n)
            for cls in part.singular.values():
                for w in cls:
                    assert host.find(w + w) == -1


@st.composite
def partition_levels(draw):
    """A random directive on 2 to 6 letters and a level whose block has at most 2,000 letters."""
    k = draw(st.integers(min_value=2, max_value=6))
    pre = draw(st.lists(st.integers(min_value=1, max_value=3), max_size=4))
    per = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
    table = BlockTable(DirectiveSpec.make(k, tuple(pre), tuple(per)))
    top = 1
    while table.block_length(top + 1) <= 2_000:
        top += 1
    return table, draw(st.integers(min_value=1, max_value=top))


def _mirror_closed(cls) -> bool:
    return frozenset(map(reversal, cls)) == cls


class TestLinearMirrorProofs:
    """factor_partition proves each class closed under reversal without mirroring it; the set comparison agrees."""

    @given(partition_levels())
    @settings(max_examples=60, deadline=None)
    def test_the_linear_proofs_pass_only_on_closed_classes(self, case):
        table, n = case
        part = factor_partition(table, n)
        block = table.block(n)
        assert ((block + block).find(reversal(block)) != -1) == _mirror_closed(part.rotations)
        for r, cls in part.singular.items():
            window = singular_window(table, n, r)
            assert is_palindrome(window)  # the construction makes every source window a palindrome
            assert _mirror_closed(cls)

    @given(st.text(alphabet="abc", min_size=1, max_size=30))
    def test_the_rotation_proof_is_an_equivalence(self, w):
        # the mirrors of w's rotations are the rotations of w's mirror, so they are closed exactly when it is one
        assert ((w + w).find(reversal(w)) != -1) == _mirror_closed(frozenset(w[j:] + w[:j] for j in range(len(w))))

    @given(st.text(alphabet="abc", min_size=1, max_size=20), st.booleans(), st.integers(min_value=1, max_value=40))
    def test_a_palindromic_window_gives_a_closed_class(self, half, odd, size):
        window = half + reversal(half)[odd:]
        assert _mirror_closed(frozenset(factors_of_length(window, size)))

    def test_rotations_not_closed_under_reversal_fail(self, monkeypatch):
        # "abbc" in place of block 2, "abac", shares no factor with the singular classes, but its mirror cbba is
        # none of its rotations
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"))
        real = table.block
        monkeypatch.setattr(table, "block", lambda n: "abbc" if n == 2 else real(n))
        with pytest.raises(InvariantViolation, match="class 0 is not closed under reversal"):
            factor_partition(table, 2)

    def test_a_window_that_is_no_palindrome_is_compared_set_to_set(self, trib, monkeypatch):
        # "ababab" is no palindrome, but its length-4 windows are the closed kind-1 class at level 2
        real = singular_module.singular_window
        monkeypatch.setattr(singular_module, "singular_window", lambda t, n, r: "ababab" if (n, r) == (2, 1) else real(t, n, r))
        assert factor_partition(trib, 2).singular[1] == frozenset({"abab", "baba"})

    def test_a_class_not_closed_under_reversal_still_fails(self, trib, monkeypatch):
        # "bbbcb" yields bbbc and bbcb, as many factors as kind 1 has, but not their mirrors cbbb and bcbb
        real = singular_module.singular_window
        monkeypatch.setattr(singular_module, "singular_window", lambda t, n, r: "bbbcb" if (n, r) == (2, 1) else real(t, n, r))
        with pytest.raises(InvariantViolation, match="class 1 is not closed under reversal"):
            factor_partition(trib, 2)


class TestClassify:
    def test_classify_by_class(self, trib):
        part = factor_partition(trib, 2)
        assert classify_factor(part, "abac") == 0
        assert classify_factor(part, "caba") == 0
        assert classify_factor(part, "abab") == 1
        assert classify_factor(part, "abaa") == 2
        assert classify_factor(part, "bbbb") is None

    def test_classify_length_guard(self, trib):
        part = factor_partition(trib, 2)
        with pytest.raises(RangeError):
            classify_factor(part, "abc")

    def test_not_a_factor_examples(self, trib):
        # the two-letter factor set misses bb entirely
        part = factor_partition(trib, 1)
        assert classify_factor(part, "bb") is None
