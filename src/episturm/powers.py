"""Closed-form power counting: indices, length grids, and the census dispatcher.

Every length m falls into the window of the unique level n whose block length
is <= m but whose successor's is not. Inside a window, lengths carrying any
integer power lie on a small grid: plain multiples of the block length, or a
multiple plus one of k-1 fixed offsets. The dispatcher classifies m on that
grid and describes the exact witness set as leading rotations of one base
word; everything else is integer arithmetic, and the scanning oracle
cross-checks the result in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockTable
from .errors import InvariantViolation, RangeError
from .words import RationalIndex, Word


@dataclass(frozen=True)
class CensusProvenance:
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


@dataclass(frozen=True)
class PowerCensus:
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


@dataclass(frozen=True)
class CensusRange:
    """census over 1..m_max: rows with witnesses, plus the lengths that carry none."""

    l: int
    nonzero: tuple[PowerCensus, ...]
    zero_lengths: tuple[int, ...]


def prefix_index(table: BlockTable, n: int) -> RationalIndex:
    """Largest fractional power of the level-n block that prefixes the word; table.power_prefix(n + 1) realizes it."""
    if n < 1:
        raise RangeError(f"prefix index starts at level 1 (got {n})")
    return RationalIndex(1 + table.exponent(n + 1), table.palindromic_prefix_length(n - table.spec.k), table.block_length(n))


def block_index(table: BlockTable, n: int) -> RationalIndex:
    """Largest fractional power of the level-n block occurring anywhere in the word."""
    if n < 1:
        raise RangeError(f"block index starts at level 1 (got {n})")
    return RationalIndex(2 + table.exponent(n + 1), table.palindromic_prefix_length(n - table.spec.k), table.block_length(n))


def block_index_witness(table: BlockTable, n: int) -> Word:
    """The factor realizing block_index(table, n): the block followed by the power prefix it extends."""
    if n < 1:
        raise RangeError(f"block index starts at level 1 (got {n})")
    return table.block(n) + table.power_prefix(n + 1)


def _offset_pieces(table: BlockTable, n: int, depth: int) -> list[tuple[int, int]]:
    """The lower blocks trailing a power of block n at the given depth, as (level, exponent) pairs.

    They are the pieces of block n+1 strictly between levels n+1-depth and n,
    closed by one copy of block n+1-depth.
    """
    low = n + 1 - depth
    return [(level, e) for level, e in table.pieces(n + 1) if low < level < n] + [(low, 1)]


def _offset_total(table: BlockTable, n: int, depth: int) -> int:
    """Grid offset at the given depth: trailing lower-block lengths below a power of block n."""
    return sum(e * table.block_length(level) for level, e in _offset_pieces(table, n, depth))


def window_level(table: BlockTable, m: int) -> int:
    """The level n with block length <= m below the next block length (level 0 for tiny m)."""
    if m < 1:
        raise RangeError(f"length must be >= 1 (got {m})")
    n = 0
    while table.block_length(n + 1) <= m:
        n += 1
    return n


def length_sets(table: BlockTable, n: int) -> dict[int, tuple[int, ...]]:
    """The grid of power-carrying lengths in the level-n window, keyed by depth 1..k.

    Depth 1 holds the plain multiples of the block length; depth i >= 2 adds
    the fixed offset of that depth. Entries are clipped to the window, and a
    depth whose offset would need a negative level reports empty.
    """
    if n < 1:
        raise RangeError(f"length grid starts at level 1 (got {n})")
    k = table.spec.k
    d_next = table.exponent(n + 1)
    size = table.block_length(n)
    window_end = table.block_length(n + 1)
    out: dict[int, tuple[int, ...]] = {1: tuple(r * size for r in range(1, d_next + 1))}
    for depth in range(2, k + 1):
        if n + 1 - depth < 0:
            out[depth] = ()
            continue
        offset = _offset_total(table, n, depth)
        r_max = d_next if depth < k else d_next - 1
        out[depth] = tuple(r * size + offset for r in range(1, r_max + 1) if r * size + offset < window_end)
    return out


def _grid_candidates(table: BlockTable, n: int, m: int) -> list[tuple[int, int]]:
    """All (depth, multiplier) grid matches for m in the level-n window, applicable or not."""
    k = table.spec.k
    size = table.block_length(n)
    d_next = table.exponent(n + 1)
    out: list[tuple[int, int]] = []
    if m % size == 0 and 1 <= m // size <= d_next:
        out.append((1, m // size))
    for depth in range(2, k + 1):
        rest = m - _offset_total(table, n, depth)
        r_max = d_next if depth < k else d_next - 1
        if rest > 0 and rest % size == 0 and 1 <= rest // size <= r_max:
            out.append((depth, rest // size))
    return out


def _offset_base(table: BlockTable, n: int, depth: int, r: int) -> Word:
    """The canonical base at an offset grid point: a power of block n plus the trailing lower blocks."""
    return table.block(n) * r + "".join(table.block(level) * e for level, e in _offset_pieces(table, n, depth))


def census(table: BlockTable, m: int, l: int) -> PowerCensus:
    """Every length-m word whose l-th power occurs in the infinite word, by closed form."""
    if l < 2:
        raise RangeError(f"power order must be >= 2 (got {l})")
    n = window_level(table, m)
    candidates = _grid_candidates(table, n, m)
    applicable = [(depth, r) for depth, r in candidates if depth == 1 or n + 1 - depth >= 0]
    if not candidates:
        return PowerCensus(m, l, 0, CensusProvenance("off-grid", n))
    if len(applicable) != 1:
        raise InvariantViolation(
            f"length {m} matches {len(applicable)} applicable grid points at level {n} (candidates {candidates})"
        )
    depth, r = applicable[0]
    d_next = table.exponent(n + 1)
    k = table.spec.k
    if depth == 1:
        if n == 0:
            # orders beyond 2 at window 0 extend the small-length rule by the
            # same run-of-first-letter argument; labeled so reports show it
            kind = "short-length" if l == 2 else "extension"
        else:
            kind = "block-multiple"
        if l * r < d_next + 2:
            take = table.block_length(n)
        elif l * r == d_next + 2:
            take = table.palindromic_prefix_length(n - k) + 1
        else:
            take = 0
        base = table.block(n) * r if take else None
    else:
        kind = "block-offset"
        take = table.palindromic_prefix_length(n + 1 - depth) + 1 if l == 2 else 0
        base = _offset_base(table, n, depth, r) if take else None
    # rotations 0..take-1 are distinct exactly when the base's rotation period is >= take
    if base is not None and (base + base).find(base, 1) < take:
        raise InvariantViolation(f"witness rotations collide at m={m}, l={l}")
    return PowerCensus(m, l, take, CensusProvenance(kind, n, depth, r, base))


def census_range(table: BlockTable, m_max: int, l: int) -> CensusRange:
    """census for every length 1..m_max, split into carrying rows and empty lengths."""
    if m_max < 1:
        raise RangeError(f"m_max must be >= 1 (got {m_max})")
    nonzero: list[PowerCensus] = []
    zero: list[int] = []
    for m in range(1, m_max + 1):
        row = census(table, m, l)
        if row.count:
            nonzero.append(row)
        else:
            zero.append(m)
    return CensusRange(l=l, nonzero=tuple(nonzero), zero_lengths=tuple(zero))
