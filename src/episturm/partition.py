"""Tilings of the word by blocks from one window of k consecutive levels.

The level-n partition tiles the word by blocks of levels n-k+1..n. It is
computed top-down: a high block expands through the recurrence until every
piece sits inside the window. Regrouping the level-n tiling yields the
level-(n+1) tiling, which the tests use as the uniqueness round-trip.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple

from .blocks import BlockTable
from .errors import InsufficientDataError, InvariantViolation, RangeError
from .words import Word, occurrences


class PartitionView(NamedTuple):
    """One tiling: (block_level, start, length) per tile, 0-based starts, covering the prefix."""

    level: int
    items: tuple[tuple[int, int, int], ...]
    covered_prefix_length: int


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


def level_partition(table: BlockTable, level: int, upto_level: int) -> PartitionView:
    """Tiling of the level-`upto_level` block by blocks of levels level-k+1..level."""
    _check_levels(level, upto_level)
    covered = table.block_length(upto_level)  # surfaces guard violations before any expansion work
    tiles = _expanded_levels(table, level, upto_level)
    size = {tile_level: table.block_length(tile_level) for tile_level in set(tiles)}
    sizes = [size[tile_level] for tile_level in tiles]
    starts = list(accumulate(sizes, initial=0))
    if starts[-1] != covered:
        raise InvariantViolation(f"tiles cover {starts[-1]} letters, block has {covered}")
    return PartitionView(level=level, items=tuple(zip(tiles, starts, sizes)), covered_prefix_length=covered)


def block_positions(view: PartitionView, level: int) -> list[int]:
    """Start positions (0-based) of the level-`level` tiles in the tiling."""
    window_low = min(item[0] for item in view.items)
    if not window_low <= level <= view.level:
        raise RangeError(f"level {level} outside the tiling window {window_low}..{view.level}")
    return [start for tile_level, start, _ in view.items if tile_level == level]


def refined_levels(table: BlockTable, view: PartitionView) -> list[int]:
    """Tile levels after one recurrence step on every top-level tile: the level-(view.level - 1) tiling."""
    top = [lower for lower, e in table.pieces(view.level) for _ in range(e)]
    return list(chain.from_iterable(top if level == view.level else (level,) for level, _, _ in view.items))


def return_words(prefix: Word, w: Word) -> frozenset:
    """Factors spanning one occurrence of w to the next, over all occurrences inside prefix."""
    if not w:
        raise RangeError("return words need a nonempty factor")
    starts = occurrences(prefix, w)
    if len(starts) < 2:
        raise InsufficientDataError(f"{w!r} occurs {len(starts)} time(s); need at least 2")
    return frozenset(prefix[a:b] for a, b in zip(starts, starts[1:]))
