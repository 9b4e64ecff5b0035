"""Tilings by one window of block levels, their uniqueness round-trip, return words."""

import pytest
from hypothesis import given, settings, strategies as st

import episturm.partition as partition
from episturm.blocks import BlockTable
from episturm.cli import _run_lengths
from episturm.directive import DirectiveSpec
from episturm.errors import InsufficientDataError, InvariantViolation, RangeError
from episturm.oracle import generate_prefix
from episturm.partition import block_positions, level_partition, refined_levels, return_words, tile_count

from conftest import ALL_NAMES


@pytest.fixture(scope="module")
def trib(tables):
    return tables["tribonacci"]


class TestTiling:
    def test_known_small_tiling(self, trib):
        view = level_partition(trib, 1, 3)
        assert view.items == ((1, 0, 2), (0, 2, 1), (-1, 3, 1), (1, 4, 2), (0, 6, 1))
        assert view.covered_prefix_length == 7

    def test_tiles_rebuild_the_block(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(0, 5):
                upto = n + 3
                view = level_partition(table, n, upto)
                host = table.block(upto)
                rebuilt = "".join(table.block(level) for level, _, _ in view.items)
                assert rebuilt == host
                for level, start, length in view.items:
                    assert table.block_length(level) == length
                    assert host[start:start + length] == table.block(level)

    def test_tile_levels_stay_in_window(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            k = table.spec.k
            for n in range(0, 5):
                view = level_partition(table, n, n + 4)
                for level, _, _ in view.items:
                    assert n - k + 1 <= level <= n

    def test_regrouping_recovers_the_coarser_tiling(self, tables):
        # expanding each tile of the level-(n+1) tiling one step must give
        # exactly the level-n tiling: the uniqueness round-trip
        for name in ALL_NAMES:
            table = tables[name]
            k = table.spec.k
            for n in range(0, 4):
                fine = [lv for lv, _, _ in level_partition(table, n, n + 4).items]
                expanded: list[int] = []
                for level, _, _ in level_partition(table, n + 1, n + 4).items:
                    if level <= n:
                        expanded.append(level)
                        continue
                    for j in range(1, k):
                        if level - j + 1 >= 1:
                            expanded.extend([level - j] * table.exponent(level - j + 1))
                    expanded.append(level - k)
                assert expanded == fine

    def test_block_positions(self, trib):
        view = level_partition(trib, 1, 3)
        assert block_positions(view, 1) == [0, 4]
        assert block_positions(view, 0) == [2, 6]
        assert block_positions(view, -1) == [3]
        with pytest.raises(RangeError):
            block_positions(view, 2)

    def test_bounds(self, trib):
        with pytest.raises(RangeError):
            level_partition(trib, -1, 3)
        with pytest.raises(RangeError):
            level_partition(trib, 3, 3)
        with pytest.raises(RangeError):
            tile_count(trib, -1, 3)
        with pytest.raises(RangeError):
            tile_count(trib, 3, 3)

    def test_tile_count_needs_no_tiling(self, tables):
        for name in ALL_NAMES:
            table = tables[name]
            for n in range(0, 5):
                for upto in range(n + 1, n + 6):
                    assert tile_count(table, n, upto) == len(level_partition(table, n, upto).items)


class TestAlignment:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_preceding_letter_pins_the_tile_level(self, tables, name):
        # wherever letter c is immediately followed by the level-n block, the
        # tiling has a tile ending there whose block ends with c
        table = tables[name]
        k = table.spec.k
        for n in range(1, 6):
            upto = n + k + 2
            view = level_partition(table, n, upto)
            host = table.block(upto)
            tile_end_level = {start + length: level for level, start, length in view.items}
            sn = table.block(n)
            pos = host.find(sn)
            while pos != -1:
                if pos >= 1:
                    level = tile_end_level.get(pos)
                    assert level is not None
                    assert table.spec.alphabet[level % k] == host[pos - 1]
                pos = host.find(sn, pos + 1)

    @pytest.mark.parametrize("name", ("tribonacci", "k3_mixed", "fibonacci", "k4_mixed"))
    def test_window_block_before_the_block_is_a_tile(self, tables, name):
        # every occurrence of (level-m block)(level-n block) with m in the
        # window starts exactly at a level-m tile
        table = tables[name]
        k = table.spec.k
        for n in range(1, 6):
            upto = n + k + 2
            view = level_partition(table, n, upto)
            host = table.block(upto)
            tiles = set(view.items)
            sn = table.block(n)
            for m in range(n - k + 1, n + 1):
                left = table.block(m)
                pattern = left + sn
                pos = host.find(pattern)
                while pos != -1:
                    assert (m, pos, len(left)) in tiles
                    pos = host.find(pattern, pos + 1)


class TestReturnWords:
    def test_known_sets(self, tables):
        trib_prefix = generate_prefix(tables["tribonacci"], 10_000)
        fib_prefix = generate_prefix(tables["fibonacci"], 10_000)
        assert return_words(trib_prefix, "a") == frozenset({"a", "ab", "ac"})
        assert return_words(fib_prefix, "a") == frozenset({"a", "ab"})
        assert return_words(trib_prefix, "ab") == frozenset({"ab", "aba", "abac"})

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_factor_has_alphabet_many_return_words(self, tables, name):
        # asserted only once the set is stable under halving the prefix
        table = tables[name]
        prefix = generate_prefix(table, 30_000)
        half = prefix[: len(prefix) // 2]
        for w in (table.spec.alphabet[0], table.block(2)):
            full_set = return_words(prefix, w)
            if return_words(half, w) == full_set:
                assert len(full_set) == table.spec.k

    def test_needs_two_occurrences(self, trib):
        with pytest.raises(InsufficientDataError):
            return_words("abc", "c")
        with pytest.raises(RangeError):
            return_words("abc", "")


# -- per-tile references for the per-level tiling and run summary ---------------


def reference_items(table, level, upto_level):
    """Tile by tile: one block_length call and one running start per tile."""
    items = []
    start = 0
    for tile_level in partition._expanded_levels(table, level, upto_level):
        size = table.block_length(tile_level)
        items.append((tile_level, start, size))
        start += size
    assert start == table.block_length(upto_level)
    return tuple(items)


def reference_refined_levels(table, view):
    """Tile by tile: each top-level tile expands its own pieces."""
    out = []
    for level, _, _ in view.items:
        if level < view.level:
            out.append(level)
        else:
            for lower, e in table.pieces(level):
                out.extend([lower] * e)
    return out


def reference_run_lengths(levels):
    """Every run encoded by index arithmetic, then the first 40 printed."""
    runs = []
    i = 0
    while i < len(levels):
        j = i
        while j < len(levels) and levels[j] == levels[i]:
            j += 1
        runs.append(f"{levels[i]}" if j - i == 1 else f"{levels[i]}x{j - i}")
        i = j
    return " ".join(runs[:40]) + (" ..." if len(runs) > 40 else "")


@st.composite
def tilings(draw):
    """A random directive, a tiling level and a host level at most five above it."""
    k = draw(st.integers(min_value=2, max_value=5))
    pre = draw(st.lists(st.integers(min_value=1, max_value=4), max_size=4))
    per = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    level = draw(st.integers(min_value=0, max_value=5))
    return BlockTable(DirectiveSpec.make(k, tuple(pre), tuple(per))), level, level + draw(st.integers(min_value=1, max_value=5))


class TestPerLevelAgainstPerTile:
    @given(tilings())
    @settings(max_examples=80, deadline=None)
    def test_items_match_the_per_tile_loop(self, case):
        table, level, upto = case
        view = level_partition(table, level, upto)
        assert view.items == reference_items(table, level, upto)
        assert view.covered_prefix_length == table.block_length(upto)

    @given(tilings())
    @settings(max_examples=80, deadline=None)
    def test_refined_levels_match_the_per_tile_loop(self, case):
        table, level, upto = case
        if upto == level + 1:
            upto += 1  # the coarser tiling needs a host above level + 1
        coarse = level_partition(table, level + 1, upto)
        refined = refined_levels(table, coarse)
        assert refined == reference_refined_levels(table, coarse)
        assert refined == [lv for lv, _, _ in level_partition(table, level, upto).items]

    def test_a_wrong_length_is_a_coverage_violation(self, monkeypatch):
        table = BlockTable(DirectiveSpec.parse("k=3; d=; 1"))
        lengths = {level: table.block_length(level) for level in range(-2, 4)}
        monkeypatch.setattr(table, "block_length", lambda n: lengths[n] + (n == 0))
        with pytest.raises(InvariantViolation, match="tiles cover 9 letters, block has 7"):
            level_partition(table, 1, 3)


def run_lists():
    """Level lists of 0 to 60 runs, each run 1 to 4 equal levels, neighbours always different."""
    def build(draws):
        levels = []
        for level, count in draws:
            if levels and levels[-1] == level:
                level += 1
            levels.extend([level] * count)
        return levels

    run = st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4))
    return st.lists(run, max_size=60).map(build)


class TestRunLengths:
    @given(run_lists())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_index_loop(self, levels):
        assert _run_lengths(levels) == reference_run_lengths(levels)
        assert _run_lengths(iter(levels)) == reference_run_lengths(levels)

    @pytest.mark.parametrize("runs, suffix", [(0, ""), (1, ""), (40, ""), (41, " ..."), (100, " ...")])
    def test_forty_runs_then_an_ellipsis(self, runs, suffix):
        levels = [lv for i in range(runs) for lv in [i % 2] * (1 + i % 3)]
        text = _run_lengths(levels)
        assert text == reference_run_lengths(levels)
        assert text.endswith(suffix) and len(text.removesuffix(" ...").split()) == min(runs, 40)
        assert text.split()[:2] == (["0", "1x2"] if runs > 1 else ["0"] * runs)
