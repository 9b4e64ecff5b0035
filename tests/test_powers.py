"""Closed-form power census, indices, witnesses, and the length grid."""

import random

import pytest
from fractions import Fraction

from episturm.blocks import BlockTable
from episturm import powers
from episturm.errors import GuardExceeded, RangeError
from episturm.powers import (
    block_index,
    block_index_witness,
    census,
    census_range,
    length_sets,
    prefix_index,
    window_level,
    witness_host_level,
)
from episturm.spec import DirectiveSpec
from episturm.words import RationalIndex

from conftest import ALL_NAMES, SPEC_TEXTS, is_primitive


def _random_specs(count: int, seed: int) -> list[str]:
    """Directive texts with k = 2..6, short preperiods and periods of exponents up to 4."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        pre = ",".join(str(rng.randint(1, 4)) for _ in range(rng.randint(0, 4)))
        period = ",".join(str(rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
        texts.append(f"k={rng.randint(2, 6)}; d={pre}; {period}")
    return texts


@pytest.fixture(scope="module")
def trib(tables):
    return tables["tribonacci"]


@pytest.fixture(scope="module")
def mix3(tables):
    return tables["k3_mixed"]


class TestWindows:
    def test_window_level(self, trib):
        # levels change where block lengths 1,2,4,7,13 are crossed
        assert [window_level(trib, m) for m in (1, 2, 3, 4, 6, 7, 12, 13)] == [0, 1, 1, 2, 2, 3, 3, 4]
        with pytest.raises(RangeError):
            window_level(trib, 0)

    def test_length_sets(self, mix3):
        assert length_sets(mix3, 3) == {1: (11, 22), 2: (15, 26), 3: (21,)}
        assert length_sets(mix3, 4) == {1: (32,), 2: (43,), 3: ()}

    def test_length_sets_disjoint_and_inside_window(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(1, 7):
                grids = length_sets(table, n)
                seen: set[int] = set()
                for depth, lengths in grids.items():
                    for m in lengths:
                        assert table.block_length(n) <= m
                        if depth > 1:
                            assert m < table.block_length(n + 1)
                        assert m not in seen
                        seen.add(m)


class TestIndices:
    def test_known_values(self, trib, mix3):
        assert prefix_index(trib, 1) == RationalIndex(1, 1, 2)
        assert prefix_index(trib, 2) == RationalIndex(1, 3, 4)
        assert block_index(trib, 2) == RationalIndex(2, 3, 4)
        assert block_index(trib, 3) == RationalIndex(3, 0, 7)
        assert prefix_index(mix3, 2) == RationalIndex(2, 3, 4)
        assert block_index(mix3, 3) == RationalIndex(4, 0, 11)

    def test_block_exceeds_prefix_by_one(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(1, 9):
                pre = prefix_index(table, n)
                blk = block_index(table, n)
                assert blk.as_fraction() - pre.as_fraction() == 1

    def test_prefix_witness_is_the_power_prefix(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(1, 9):
                pre = prefix_index(table, n)
                witness = table.power_prefix(n + 1)
                assert len(witness) == pre.length
                assert witness == table.block(n) * pre.whole + table.block(n)[: pre.num]

    def test_block_witness_shape_and_occurrence(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(1, 5):
                w = block_index_witness(table, n)
                blk = block_index(table, n)
                assert len(w) * blk.den == (blk.whole * blk.den + blk.num) * table.block_length(n)
                assert w in table.block(witness_host_level(table, n))

    def test_bounds(self, trib):
        for fn in (prefix_index, block_index, block_index_witness):
            with pytest.raises(RangeError):
                fn(trib, 0)


class TestCensus:
    def test_small_length_rule(self, trib):
        row = census(trib, 1, 2)
        assert row.count == 1 and row.witnesses == ("a",)
        assert row.provenance.kind == "short-length"
        # order three needs a run of three first letters; none exists here
        row3 = census(trib, 1, 3)
        assert row3.count == 0
        assert row3.provenance.kind == "extension"

    def test_extension_rule_carries_witnesses(self, tables):
        from episturm.blocks import BlockTable
        from episturm.spec import DirectiveSpec

        table = BlockTable(DirectiveSpec.parse("k=3; d=3,1,2; 1"))
        assert census(table, 1, 3).witnesses == ("a",)
        assert census(table, 1, 4).witnesses == ("a",)
        assert census(table, 2, 3).count == 0

    def test_block_multiple_rule(self, trib):
        # squares of every rotation of the block, then the boundary case
        row = census(trib, 2, 2)
        assert row.count == 2 and set(row.witnesses) == {"ab", "ba"}
        assert row.provenance.kind == "block-multiple"

    def test_off_grid_lengths_are_empty(self, mix3):
        for m in (12, 13, 14, 16, 27, 31):
            row = census(mix3, m, 2)
            assert row.count == 0
            assert row.provenance.kind == "off-grid"

    def test_census_range_summary(self, mix3):
        assert [c.m for c in census_range(mix3, 58, 2)] == [1, 2, 3, 4, 6, 7, 10, 11, 15, 21, 22, 26, 32, 43, 58]

    @pytest.mark.parametrize("text", [*SPEC_TEXTS.values(), *_random_specs(12, seed=6)])
    def test_walk_equals_per_length_census(self, text):
        table = BlockTable(DirectiveSpec.parse(text))
        for l in (2, 3, 4):
            rows = [census(table, m, l) for m in range(1, 400)]
            assert list(census_range(table, 399, l)) == [row for row in rows if row.count]

    def test_range_guard_counts_the_base_letters(self, monkeypatch):
        spec = DirectiveSpec.parse(SPEC_TEXTS["k3_mixed"])
        letters = sum(row.m for row in census_range(BlockTable(spec), 58, 2))
        assert len(list(census_range(BlockTable(spec, length_guard=letters), 58, 2))) == 15
        # refused before any row, and so any base, is built
        monkeypatch.setattr(powers, "_row", None)
        with pytest.raises(GuardExceeded, match=f"census range 1..58 has {letters} letters"):
            census_range(BlockTable(spec, length_guard=letters - 1), 58, 2)

    def test_range_builds_each_row_as_it_is_read(self, monkeypatch, mix3):
        built, row = [], powers._row
        monkeypatch.setattr(powers, "_row", lambda table, m, *args: built.append(m) or row(table, m, *args))
        rows = census_range(mix3, 58, 2)
        assert built == []
        assert next(rows).m == 1 and built == [1]
        assert next(rows).m == 2 and built == [1, 2]
        assert [r.m for r in rows] == built[2:] == [3, 4, 6, 7, 10, 11, 15, 21, 22, 26, 32, 43, 58]

    def test_base_checks_the_length_guard(self):
        # m = 15 carries 8 rotations of a 15-letter base built from blocks of at most 11 letters
        spec = DirectiveSpec.parse(SPEC_TEXTS["k3_mixed"])
        assert census(BlockTable(spec, length_guard=15), 15, 2).count == 8
        with pytest.raises(GuardExceeded, match="census base at m=15"):
            census(BlockTable(spec, length_guard=14), 15, 2)

    def test_range_arguments(self, trib):
        for m_max, l in ((0, 2), (-3, 2), (5, 1)):
            with pytest.raises(RangeError):
                census_range(trib, m_max, l)

    def test_monotone_in_the_order(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for m in range(1, table.block_length(5) + 1):
                counts = [census(table, m, l).count for l in (2, 3, 4)]
                assert counts[0] >= counts[1] >= counts[2]

    def test_witnesses_are_leading_rotations_without_collisions(self, tables):
        # offset bases are primitive; multiple bases are powers of the
        # primitive level block, so the leading rotations never collide
        for name in ALL_NAMES:
            table = tables[name]
            for m in range(2, table.block_length(5) + 1):
                for l in (2, 3):
                    row = census(table, m, l)
                    if row.count == 0 or row.provenance.level < 1:
                        continue
                    base = row.provenance.base
                    if row.provenance.kind == "block-offset":
                        assert is_primitive(base)
                    else:
                        block = table.block(row.provenance.level)
                        assert base == block * row.provenance.multiplier
                        assert is_primitive(block)
                    assert row.witnesses == tuple(base[j:] + base[:j] for j in range(row.count))
                    assert len(set(row.witnesses)) == row.count

    def test_order_below_two_rejected(self, trib):
        with pytest.raises(RangeError):
            census(trib, 5, 1)

    def test_largest_order_matches_the_index_floor(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(1, 7):
                floor_l = block_index(table, n).whole
                m = table.block_length(n)
                assert census(table, m, floor_l).count > 0
                assert census(table, m, floor_l + 1).count == 0
                witness = block_index_witness(table, n)
                d = table.exponent(n + 1)
                if n >= table.spec.k:
                    assert witness == table.block(n) * (d + 2) + table.palindromic_prefix(n - table.spec.k)
                else:
                    assert witness == (table.block(n) * (d + 2))[:-1]
