"""Block tables: recurrence, palindromic prefixes, tails, junctions, guards."""

import pytest

from episturm.blocks import BlockTable
from episturm.directive import exponent_sum, prefix_increment
from episturm.errors import CancellationError, GuardExceeded, RangeError
from episturm.powers import block_index_witness
from episturm.spec import DirectiveSpec
from episturm.words import conjugate, is_palindrome, reversal

from conftest import ALL_NAMES, is_primitive


@pytest.fixture(scope="module")
def trib():
    return BlockTable(DirectiveSpec.parse("k=3; d=; 1"))


@pytest.fixture(scope="module")
def mix3():
    return BlockTable(DirectiveSpec.parse("k=3; d=1,1,2; 2,1,2"))


class TestBlocks:
    def test_seed_letters(self, trib):
        assert trib.block(0) == "a"
        assert trib.block(-1) == "c"
        assert trib.block(-2) == "b"
        with pytest.raises(RangeError):
            trib.block(-3)

    def test_known_blocks(self, trib):
        want = ["ab", "abac", "abacaba", "abacabaabacab", "abacabaabacababacabaabac"]
        assert [trib.block(n) for n in range(1, 6)] == want

    def test_each_block_prefixes_the_next(self, trib):
        for n in range(0, 10):
            assert trib.block(n + 1).startswith(trib.block(n))

    def test_blocks_are_primitive(self, mix3):
        for n in range(1, 9):
            assert is_primitive(mix3.block(n))

    def test_last_letter_cycles_through_alphabet(self, mix3):
        for n in range(1, 10):
            assert mix3.block(n)[-1] == mix3.spec.alphabet[n % 3]

    def test_length_sequences(self, trib):
        assert [trib.block_length(n) for n in range(0, 9)] == [1, 2, 4, 7, 13, 24, 44, 81, 149]
        assert [trib.other_letter_count(n) for n in range(0, 9)] == [0, 1, 2, 3, 6, 11, 20, 37, 68]
        for n in range(0, 9):
            assert trib.first_letter_count(n) == trib.block(n).count("a")
            assert trib.block_length(n) == len(trib.block(n))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_level_reaching_is_the_lowest_long_enough_block(self, tables, name):
        table = tables[name]
        for length in range(1, table.block_length(8) + 2):
            n = table.level_reaching(length)
            assert n >= 1 and table.block_length(n) >= length
            assert n == 1 or table.block_length(n - 1) < length

    def test_block_equals_composed_increment(self, mix3):
        for n in range(1, 7):
            stage = exponent_sum(mix3.spec, n)
            assert mix3.block(n) == prefix_increment(mix3.spec, stage)


class TestPieces:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_pieces_rebuild_block_and_sequences(self, tables, name):
        table = tables[name]
        k = table.spec.k
        first = table.spec.alphabet[0]
        for n in range(1, 11):
            pieces = table.pieces(n)
            assert pieces[0] == (n - 1, table.exponent(n)) and pieces[-1] == (n - k, 1)
            joined = "".join(table.block(level) * e for level, e in pieces)
            assert table.block(n) == joined
            assert table.block_length(n) == sum(e * table.block_length(level) for level, e in pieces) == len(joined)
            others = sum(e * table.other_letter_count(level) for level, e in pieces)
            assert table.other_letter_count(n) == others == len(joined) - joined.count(first)
        with pytest.raises(RangeError):
            table.pieces(0)

    @pytest.mark.parametrize("text", ["k=3; d=; 1", "k=4; d=2,1,3,1; 2,2", "k=2; d=40; 1"])
    def test_head_is_the_prefix_and_builds_no_longer_block(self, text):
        whole = BlockTable(DirectiveSpec.parse(text))
        for n in range(-1, 8):
            for size in sorted({0, 1, 2, 5, 17, whole.block_length(n) - 1, whole.block_length(n), 1000}):
                table = BlockTable(whole.spec)
                built = []
                block = table.block
                table.block = lambda m: built.append(m) or block(m)
                assert table.head(n, size) == whole.block(n)[:size]
                assert all(table.block_length(m) <= max(size, 1) for m in built)

    def test_head_of_a_block_above_the_length_guard(self):
        # block 1 of a^130000000 b has 130,000,001 letters; its head is built from block 0 and the seed
        table = BlockTable(DirectiveSpec.parse("k=2; d=130000000; 1"), length_guard=1 << 20)
        assert table.head(1, 5) == "aaaaa" and table.head(2, 1 << 20) == "a" * (1 << 20)
        with pytest.raises(GuardExceeded, match="head of the block at level 1"):
            table.head(1, (1 << 20) + 1)


class TestPalindromicPrefixes:
    def test_known_values(self, trib, mix3):
        assert [trib.palindromic_prefix(n) for n in range(0, 4)] == ["", "a", "aba", "abacaba"]
        assert mix3.palindromic_prefix(3) == "abacabacabaabacabacaba"
        assert mix3.palindromic_prefix_length(3) == 22

    def test_palindromes_and_nesting(self, mix3):
        for n in range(0, 9):
            p = mix3.palindromic_prefix(n)
            assert is_palindrome(p)
            assert len(p) == mix3.palindromic_prefix_length(n)
            assert mix3.block(n + 1).startswith(p)

    def test_formal_length_convention(self, trib):
        for n in (-1, -2, -3):
            assert trib.palindromic_prefix_length(n) == -1
        with pytest.raises(RangeError):
            trib.palindromic_prefix_length(-4)
        with pytest.raises(RangeError):
            trib.palindromic_prefix(-1)

    def test_length_recurrence(self, mix3):
        for n in range(0, 10):
            assert mix3.palindromic_prefix_length(n) == (
                mix3.exponent(n + 1) * mix3.block_length(n) + mix3.palindromic_prefix_length(n - 3)
            )


class TestTails:
    def test_known_values(self, trib):
        assert [trib.block_tail(n, 1) for n in range(1, 5)] == ["ab", "bac", "caba", "abacab"]
        assert [trib.block_tail(n, 2) for n in range(1, 5)] == ["cab", "abac", "bacaba", "cabaabacab"]

    def test_split_identity(self, mix3):
        for n in range(1, 9):
            for r in range(1, 3):
                if n >= r:
                    assert mix3.palindromic_prefix(n - r) + mix3.block_tail(n, r) == mix3.block(n)

    def test_shallow_levels_prepend_a_cycle_letter(self, trib):
        # below depth the tail is one borrowed letter plus the whole block
        assert trib.block_tail(1, 2) == "c" + trib.block(1)
        assert trib.block_tail(0, 1) == "c" + "a"
        assert trib.block_tail(0, 2) == "b" + "a"

    def test_depth_bounds(self, trib):
        with pytest.raises(RangeError):
            trib.block_tail(2, 0)
        with pytest.raises(RangeError):
            trib.block_tail(2, 3)

    def test_reversal_link(self, mix3):
        for n in range(1, 9):
            assert mix3.block_tail(n, 1) == reversal(mix3.block_tail(n - 1, 2))


class TestJunction:
    def test_known_values(self, trib):
        assert trib.junction(2) == "bacaba"
        assert trib.junction(3) == "acabaabacab"

    def test_closes_the_block_product(self, trib, mix3):
        for table in (trib, mix3):
            for n in range(2, 8):
                product = table.block(n + 2) + table.block(n + 1)
                power = table.block(n + 1) * (table.exponent(n + 2) + 1)
                assert product == power + table.junction(n)

    def test_formal_below_window(self, trib):
        for n in (0, 1):
            with pytest.raises(CancellationError):
                trib.junction(n)
        with pytest.raises(RangeError):
            trib.junction(-1)


class TestPowerPrefix:
    def test_known_values(self, trib):
        want = ["", "a", "aba", "abacaba", "abacabaabacaba"]
        assert [trib.power_prefix(n) for n in range(0, 5)] == want

    def test_palindrome_and_prefix(self, mix3):
        for n in range(1, 9):
            r = mix3.power_prefix(n)
            assert is_palindrome(r)
            assert mix3.block(n + 1).startswith(r)
            assert r.startswith(mix3.block(n - 1))


class TestStructureLaws:
    def test_reversal_is_a_rotation(self, mix3):
        for n in range(1, 9):
            w = mix3.block(n)
            j = mix3.palindromic_prefix_length(n - 3) % len(w)
            assert reversal(w) == conjugate(w, j)

    def test_near_commutation(self, mix3):
        from episturm.words import strip_suffix

        for n in range(1, 9):
            left = strip_suffix(mix3.block(n) + mix3.block(n - 1), mix3.block_tail(n - 1, 2))
            right = strip_suffix(mix3.block(n - 1) + mix3.block(n), mix3.block_tail(n, 1))
            assert left == right


class TestGuards:
    def test_level_guard(self):
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"), level_guard=5)
        table.block(5)
        with pytest.raises(GuardExceeded):
            table.block(6)
        with pytest.raises(GuardExceeded):
            table.palindromic_prefix_length(6)

    def test_length_guard(self):
        table = BlockTable(DirectiveSpec.parse("k=2; d=; 3"), length_guard=100)
        with pytest.raises(GuardExceeded):
            table.block(10)
        # integer sequences stay available above the length guard
        assert table.block_length(10) > 100

    @pytest.mark.parametrize("text", ["k=2; d=; 3", "k=3; d=; 1", "k=3; d=1,1,2; 2,1,2", "k=4; d=2,1,3,1; 2,2"])
    def test_every_built_word_checks_the_length_guard(self, text):
        guard = 1000
        table = BlockTable(DirectiveSpec.parse(text), length_guard=guard)
        k = table.spec.k
        B, P = table.block_length, table.palindromic_prefix_length
        # builder: (lowest level, length of its word, longest word the table builds for it)
        builders = {
            table.block: (1, B, B),
            table.palindromic_prefix: (0, P, lambda n: max(B(n), P(n))),
            table.power_prefix: (1, lambda n: B(n - 1) + P(n - 1), lambda n: B(n - 1) + P(n - 1)),
            lambda n: table.block_tail(n, 1): (1, lambda n: B(n) - P(n - 1), B),
            table.junction: (k - 1, lambda n: P(n - k + 1) + B(n + 1) - P(n - k + 2), lambda n: B(n + 1)),
            lambda n: block_index_witness(table, n): (1, lambda n: 2 * B(n) + P(n), lambda n: B(n) + P(n)),
        }
        for build, (low, length, cost) in builders.items():
            top = next(n for n in range(low, 64) if cost(n) > guard)
            assert top > low
            assert len(build(top - 1)) == length(top - 1)
            with pytest.raises(GuardExceeded):
                build(top)

    def test_bad_guard(self):
        with pytest.raises(RangeError):
            BlockTable(DirectiveSpec.parse("k=3; d=; 1"), level_guard=0)
