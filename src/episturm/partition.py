"""Tilings of the word by blocks from one window of k consecutive levels.

The level-n partition tiles the word by blocks of levels n-k+1..n. It is
computed top-down: a high block expands through the recurrence until every
piece sits inside the window. Regrouping the level-n tiling yields the
level-(n+1) tiling, which the tests use as the uniqueness round-trip.
"""

from __future__ import annotations

from itertools import accumulate, chain
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .blocks import BlockTable
from .errors import InsufficientDataError, InvariantViolation, RangeError

if TYPE_CHECKING:
    from .words import Word


class PartitionView(NamedTuple):
    """One tiling: the level of each tile in order, and the running starts (0-based), one more than the tiles.

    The last start is the covered prefix length. `items`, one (block_level,
    start, length) triple per tile, is rebuilt on each access.
    """

    level: int
    levels: tuple[int, ...]
    starts: tuple[int, ...]

    @property
    def covered_prefix_length(self) -> int:
        return self.starts[-1]

    @property
    def items(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.levels, self.starts, map(sub, self.starts[1:], self.starts)))


def _check_levels(level: int, upto_level: int) -> None:
    if level < 0:
        raise RangeError(f"partition level must be >= 0 (got {level})")
    if upto_level <= level:
        raise RangeError(f"upto_level {upto_level} must exceed the partition level {level}")


def _expanded_levels(table: BlockTable, level: int, upto_level: int) -> tuple[int, ...]:
    """Flat sequence of tile levels for the level-`upto_level` block, all within the window."""
    flat: dict[int, tuple[int, ...]] = {}
    for m in range(level + 1, upto_level + 1):
        parts: list[int] = []
        for lower, e in table.pieces(m):
            parts.extend(flat.get(lower, (lower,)) * e)
        flat[m] = tuple(parts)
    return flat[upto_level]


def tile_count(table: BlockTable, level: int, upto_level: int) -> int:
    """How many tiles level_partition(table, level, upto_level) has, from the recurrence alone."""
    _check_levels(level, upto_level)
    counts: dict[int, int] = {}
    for m in range(level + 1, upto_level + 1):
        counts[m] = sum(e * counts.get(lower, 1) for lower, e in table.pieces(m))
    return counts[upto_level]


def tile_levels(table: BlockTable, level: int, upto_level: int) -> tuple[int, ...]:
    """The level of each tile of level_partition(table, level, upto_level), in order, without their starts."""
    _check_levels(level, upto_level)
    return _expanded_levels(table, level, upto_level)


def level_partition(table: BlockTable, level: int, upto_level: int) -> PartitionView:
    """Tiling of the level-`upto_level` block by blocks of levels level-k+1..level."""
    _check_levels(level, upto_level)
    covered = table.block_length(upto_level)  # surfaces guard violations before any expansion work
    levels = _expanded_levels(table, level, upto_level)
    size = {tile_level: table.block_length(tile_level) for tile_level in set(levels)}
    starts = tuple(accumulate(map(size.__getitem__, levels), initial=0))
    if starts[-1] != covered:
        raise InvariantViolation(f"tiles cover {starts[-1]} letters, block has {covered}")
    return PartitionView(level, levels, starts)


def block_positions(view: PartitionView, level: int) -> list[int]:
    """Start positions (0-based) of the level-`level` tiles in the tiling."""
    window_low = min(view.levels)
    if not window_low <= level <= view.level:
        raise RangeError(f"level {level} outside the tiling window {window_low}..{view.level}")
    return [start for tile_level, start in zip(view.levels, view.starts) if tile_level == level]


def refined_levels(table: BlockTable, tiling: PartitionView | tuple[int, tuple[int, ...]]) -> list[int]:
    """Tile levels after one recurrence step on every top-level tile: the tiling one level down.

    `tiling` is a PartitionView or just its first two fields, (level, levels):
    no start is read.
    """
    level, levels = tiling[:2]
    top = [lower for lower, e in table.pieces(level) for _ in range(e)]
    return list(chain.from_iterable(top if tile_level == level else (tile_level,) for tile_level in levels))


def return_words(prefix: Word, w: Word) -> frozenset:
    """Factors spanning one occurrence of w to the next, over all occurrences inside prefix."""
    if not w:
        raise RangeError("return words need a nonempty factor")
    from .words import occurrences

    starts = occurrences(prefix, w)
    if len(starts) < 2:
        raise InsufficientDataError(f"{w!r} occurs {len(starts)} time(s); need at least 2")
    return frozenset(prefix[a:b] for a, b in zip(starts, starts[1:]))
