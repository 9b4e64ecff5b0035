"""Closed-form power counting: indices, length grids, and the census dispatcher.

Every length m falls into the window of the unique level n whose block length
is <= m but whose successor's is not. Inside a window, lengths carrying any
integer power lie on a small grid: plain multiples of the block length, or a
multiple plus one of k-1 fixed offsets. The dispatcher classifies m on that
grid, a range walks the grids and yields a row at each carrying point, and each
row describes the exact witness set as leading rotations of one base word;
everything else is integer arithmetic, and the scanning oracle cross-checks
the result in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

from .blocks import BlockTable
from .errors import InvariantViolation, RangeError

if TYPE_CHECKING:
    from .words import RationalIndex, Word


class CensusProvenance(NamedTuple):
    """How a census row was classified.

    kind: 'short-length' (window of level 0, order 2), 'extension' (window of
    level 0, order >= 3), 'block-multiple', 'block-offset', or 'off-grid'.
    level is the window; depth/multiplier locate the grid point
    (m = multiplier * block length + offset total at the given depth); base is
    the word whose leading rotations are the witnesses, when any exist.
    """

    kind: str
    level: int
    depth: int | None = None
    multiplier: int | None = None
    base: Word | None = None


class PowerCensus(NamedTuple):
    """Exact answer to: which length-m words have their l-th power inside the word?

    The witnesses are the first `count` rotations of provenance.base; they are
    built each time `witnesses` is read.
    """

    m: int
    l: int
    count: int
    provenance: CensusProvenance

    @property
    def witnesses(self) -> tuple[Word, ...]:
        base = self.provenance.base
        return tuple(base[j:] + base[:j] for j in range(self.count))


def prefix_index(table: BlockTable, n: int) -> RationalIndex:
    """Largest fractional power of the level-n block that prefixes the word; table.power_prefix(n + 1) realizes it."""
    if n < 1:
        raise RangeError(f"prefix index starts at level 1 (got {n})")
    from .words import RationalIndex  # imported where an index is built, so a census start never loads `words`

    return RationalIndex(1 + table.exponent(n + 1), table.palindromic_prefix_length(n - table.spec.k), table.block_length(n))


def block_index(table: BlockTable, n: int) -> RationalIndex:
    """Largest fractional power of the level-n block occurring anywhere in the word."""
    if n < 1:
        raise RangeError(f"block index starts at level 1 (got {n})")
    from .words import RationalIndex

    return RationalIndex(2 + table.exponent(n + 1), table.palindromic_prefix_length(n - table.spec.k), table.block_length(n))


def block_index_witness(table: BlockTable, n: int) -> Word:
    """The factor realizing block_index(table, n): the block followed by the power prefix it extends."""
    if n < 1:
        raise RangeError(f"block index starts at level 1 (got {n})")
    return table.block(n) + table.power_prefix(n + 1)


def witness_host_level(table: BlockTable, n: int) -> int:
    """The level whose block holds block_index_witness(table, n) and starts with table.power_prefix(n + 1)."""
    return n + table.spec.k + 2


def _offset_pieces(table: BlockTable, n: int, depth: int) -> list[tuple[int, int]]:
    """The lower blocks trailing a power of block n at the given depth, as (level, exponent) pairs.

    They are the pieces of block n+1 strictly between levels n+1-depth and n,
    closed by one copy of block n+1-depth.
    """
    low = n + 1 - depth
    return [(level, e) for level, e in table.pieces(n + 1) if low < level < n] + [(low, 1)]


def _grid(table: BlockTable, n: int) -> dict[int, tuple[int, int]]:
    """The level-n window grid as {depth: (offset, r_max)}, for the applicable depths only.

    Its lengths are r * |block n| + offset for r in 1..r_max. Depth 1 has no
    offset; depth i >= 2 adds the lower blocks trailing a power of block n and
    applies only while level n+1-i is not negative. The deepest depth stops
    one multiple short.
    """
    k = table.spec.k
    d_next = table.exponent(n + 1)
    grid = {1: (0, d_next)}
    for depth in range(2, min(k, n + 1) + 1):
        offset = sum(e * table.block_length(level) for level, e in _offset_pieces(table, n, depth))
        grid[depth] = (offset, d_next if depth < k else d_next - 1)
    return grid


def window_level(table: BlockTable, m: int) -> int:
    """The level n with block length <= m below the next block length (level 0 for tiny m)."""
    if m < 1:
        raise RangeError(f"length must be >= 1 (got {m})")
    return table.level_reaching(m + 1) - 1


def length_sets(table: BlockTable, n: int) -> dict[int, tuple[int, ...]]:
    """The grid of power-carrying lengths in the level-n window, keyed by depth 1..k.

    A depth whose offset would need a negative level reports empty. Every grid
    point lies below |block n+1|; check_length_grids verifies it.
    """
    if n < 1:
        raise RangeError(f"length grid starts at level 1 (got {n})")
    size = table.block_length(n)
    out: dict[int, tuple[int, ...]] = {depth: () for depth in range(1, table.spec.k + 1)}
    for depth, (offset, r_max) in _grid(table, n).items():
        out[depth] = tuple(r * size + offset for r in range(1, r_max + 1))
    return out


def _offset_base(table: BlockTable, n: int, depth: int, r: int) -> Word:
    """The canonical base at an offset grid point: a power of block n plus the trailing lower blocks."""
    return table.block(n) * r + "".join(table.block(level) * e for level, e in _offset_pieces(table, n, depth))


def _carrying(table: BlockTable, n: int, depth: int, l: int, r_max: int) -> int:
    """How many of the multiples 1..r_max at this depth of the level-n window carry an l-th power.

    Depth 1 carries while l * r < d_{n+1} + 2, and at equality from level k on
    (the palindromic prefix at n - k is formal below it); deeper depths carry
    squares only.
    """
    if depth > 1:
        return r_max if l == 2 else 0
    return min(r_max, (table.exponent(n + 1) + 1 + (n >= table.spec.k)) // l)


def _take(table: BlockTable, l: int, n: int, depth: int, r: int) -> int:
    """How many leading rotations of the base at grid point (depth, r) of the level-n window have an l-th power in the word."""
    if _carrying(table, n, depth, l, r) < r:
        return 0
    if depth > 1:
        return table.palindromic_prefix_length(n + 1 - depth) + 1
    if l * r < table.exponent(n + 1) + 2:
        return table.block_length(n)
    return table.palindromic_prefix_length(n - table.spec.k) + 1


def _row(table: BlockTable, m: int, l: int, n: int, depth: int, r: int) -> PowerCensus:
    """The census row of length m at grid point (depth, r) of the level-n window."""
    # orders beyond 2 at window 0 extend the small-length rule by the
    # same run-of-first-letter argument; labeled so reports show it
    kind = "block-offset" if depth > 1 else "block-multiple" if n > 0 else "short-length" if l == 2 else "extension"
    take = _take(table, l, n, depth, r)
    base = None
    if take:
        table.check_size(f"census base at m={m}", m)
        base = table.block(n) * r if depth == 1 else _offset_base(table, n, depth, r)
        # rotations 0..take-1 are distinct exactly when the base's rotation period is >= take
        if (base + base).find(base, 1) < take:
            raise InvariantViolation(f"witness rotations collide at m={m}, l={l}")
    return PowerCensus(m, l, take, CensusProvenance(kind, n, depth, r, base))


def check_census_args(m: int, l: int, *, ranged: bool) -> None:
    """Refuse a census length m (m_max when ranged) below 1 or an order l below 2: a range checks m_max first, one length its order."""
    if ranged and m < 1:
        raise RangeError(f"m_max must be >= 1 (got {m})")
    if l < 2:
        raise RangeError(f"power order must be >= 2 (got {l})")
    if m < 1:
        raise RangeError(f"length must be >= 1 (got {m})")


def census(table: BlockTable, m: int, l: int) -> PowerCensus:
    """Every length-m word whose l-th power occurs in the infinite word, by closed form."""
    check_census_args(m, l, ranged=False)
    return next(census_each(table, m, m, l))


def census_each(table: BlockTable, m_min: int, m_max: int, l: int) -> Iterator[PowerCensus]:
    """census at every length m_min..m_max in order of m, reading each window's grid once; each row is built as it is read.

    A window's depths have distinct offsets below |block n|, so m % |block n| names the one depth m can lie on;
    depths that share it would make two grid points of one length, and raise.
    """
    n, m = window_level(table, m_min), m_min
    while m <= m_max:
        size, end = table.block_length(n), min(m_max + 1, table.block_length(n + 1))
        points: dict[int, tuple[int, int, int]] = {}  # offset mod size -> (depth, offset, r_max)
        for depth, (offset, r_max) in _grid(table, n).items():
            if offset % size in points:
                shared = points[offset % size][0]
                raise InvariantViolation(f"depths {shared} and {depth} share offset {offset}: 2 applicable grid points at level {n}")
            points[offset % size] = depth, offset, r_max
        for length in range(m, end):
            depth, offset, r_max = points.get(length % size, (None, 0, 0))
            r = (length - offset) // size
            if 1 <= r <= r_max:
                yield _row(table, length, l, n, depth, r)
            else:
                yield PowerCensus(length, l, 0, CensusProvenance("off-grid", n))
        n, m = n + 1, end


def _carrying_runs(table: BlockTable, m_max: int, l: int) -> list[tuple[int, int, range]]:
    """The grid points up to m_max that carry an l-th power, as (level, depth, lengths): multiple r is lengths[r - 1]."""
    check_census_args(m_max, l, ranged=True)
    runs = []
    for n in range(window_level(table, m_max) + 1):
        size = table.block_length(n)
        for depth, (offset, r_max) in _grid(table, n).items():
            r_max = _carrying(table, n, depth, l, r_max)
            runs.append((n, depth, range(offset + size, min(m_max, offset + r_max * size) + 1, size)))
    return runs


def census_range(table: BlockTable, m_max: int, l: int) -> Iterator[PowerCensus]:
    """census over 1..m_max as its carrying rows in order of m, from a walk over the window grids; no other length carries.

    The arguments and the bases' summed letters are checked at the call;
    each row, base and all, is built as it is read.
    """
    runs = _carrying_runs(table, m_max, l)
    letters = sum((lengths.start + lengths[-1]) * len(lengths) // 2 for _, _, lengths in runs if lengths)
    table.check_size(f"census range 1..{m_max}", letters)
    points = sorted((m, n, depth, r) for n, depth, lengths in runs for r, m in enumerate(lengths, 1))
    return (_row(table, m, l, n, depth, r) for m, n, depth, r in points)


def witness_letters(table: BlockTable, m_max: int, l: int, m_min: int = 1) -> int:
    """The letters of the census witness lists at lengths m_min..m_max, count * m summed over their rows: no base is built."""
    letters = 0
    for n, depth, lengths in _carrying_runs(table, m_max, l):
        below = max(0, -(-(m_min - lengths.start) // lengths.step))  # the multiples under m_min, skipped unread
        letters += sum(_take(table, l, n, depth, r) * m for r, m in enumerate(lengths[below:], below + 1))
    return letters
