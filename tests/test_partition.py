"""Tilings by one window of block levels, their uniqueness round-trip, return words."""

import pytest

from episturm.errors import InsufficientDataError, InvariantViolation, RangeError
from episturm.oracle import generate_prefix
from episturm.partition import block_positions, level_partition, return_words, tile_count

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
