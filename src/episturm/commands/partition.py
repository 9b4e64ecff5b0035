"""`partition`: the tiling of a block by the level-n window blocks, and its one-step regrouping."""

from __future__ import annotations

from itertools import groupby, islice

from ..directive import DirectiveSpec
from ..errors import GuardExceeded, VerificationError
from . import Reporter, build_table

# A tile costs about 2.7 us and 190 bytes with --json --verify (2^20 tiles: 3 s,
# 200 MB) on a 2-CPU x86-64 VM (Python 3.11).
_PARTITION_TILE_GUARD = 1 << 20


def _run_lengths(levels) -> str:
    """The first 40 runs of equal levels as `level` or `levelxcount`, and ` ...` when more follow."""
    runs = [(level, sum(1 for _ in run)) for level, run in islice(groupby(levels), 41)]
    return " ".join(f"{level}x{count}" if count > 1 else f"{level}" for level, count in runs[:40]) + (" ..." if len(runs) > 40 else "")


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    from ..partition import level_partition, refined_levels, tile_count

    table = build_table(spec, args.level_guard)
    n = args.n
    upto = args.m if args.m is not None else n + 2
    tiles = tile_count(table, n, upto)
    if tiles > _PARTITION_TILE_GUARD:
        raise GuardExceeded(f"level-{n} tiling of block {upto}: {tiles} tiles, above the guard {_PARTITION_TILE_GUARD}")
    view = level_partition(table, n, upto)
    rep.row(
        "partition",
        {
            "level": n,
            "upto": upto,
            "covered": view.covered_prefix_length,
            "piece_count": len(view.items),
            "items": view.items,
        },
        [
            f"level-{n} tiling of the block at level {upto}: {len(view.items)} pieces, {view.covered_prefix_length} letters",
            f"piece levels: {_run_lengths(level for level, _, _ in view.items)}",
        ],
    )
    if args.verify:
        ok = refined_levels(table, level_partition(table, n + 1, upto)) == [level for level, _, _ in view.items]
        rep.row(
            "verification",
            {"target": "partition", "ok": ok, "detail": None if ok else "one-step regrouping disagrees"},
            f"regrouping against the level-{n + 1} tiling: {'OK' if ok else 'MISMATCH'}",
        )
        if not ok:
            raise VerificationError(f"level-{n} tiling does not regroup the level-{n + 1} tiling")
    return 0
