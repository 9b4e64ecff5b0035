"""`partition`: the tiling of a block by the level-n window blocks, and its one-step regrouping."""

from __future__ import annotations

from itertools import groupby, islice

from ..errors import GuardExceeded, VerificationError
from ..spec import DirectiveSpec
from . import Reporter, build_table

# A tile costs about 0.5 us and 100 bytes with --json --verify (2^20 tiles: 0.6 s,
# 113 MB max RSS) on a 2-CPU x86-64 VM (Python 3.11). Twice the tiles would need
# about 210 MB, above the 160 MB the guard contract test allows a child.
_PARTITION_TILE_GUARD = 1 << 20


def _run_lengths(levels) -> str:
    """The first 40 runs of equal levels as `level` or `levelxcount`, and ` ...` when more follow."""
    runs = [(level, sum(1 for _ in run)) for level, run in islice(groupby(levels), 41)]
    return " ".join(f"{level}x{count}" if count > 1 else f"{level}" for level, count in runs[:40]) + (" ..." if len(runs) > 40 else "")


def _items_json(table, view) -> str:
    """The tiling's `items` array as json.dumps prints it: one `%d` template per tile level, filled with the starts."""
    template = {level: f"[{level}, %d, {table.block_length(level)}]" for level in set(view.levels)}
    return f"[{', '.join(map(template.__getitem__, view.levels))}]" % view.starts[:-1]


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    from ..partition import level_partition, refined_levels, tile_count, tile_levels

    table = build_table(spec, args.level_guard)
    n = args.n
    upto = args.m if args.m is not None else n + 2
    tiles = tile_count(table, n, upto)
    if tiles > _PARTITION_TILE_GUARD:
        raise GuardExceeded(f"level-{n} tiling of block {upto}: {tiles} tiles, above the guard {_PARTITION_TILE_GUARD}")
    view = level_partition(table, n, upto)
    rep.row(
        "partition",
        {"level": n, "upto": upto, "covered": view.covered_prefix_length, "piece_count": len(view.levels)},
        [
            f"level-{n} tiling of the block at level {upto}: {len(view.levels)} pieces, {view.covered_prefix_length} letters",
            f"piece levels: {_run_lengths(view.levels)}",
        ],
        last=("items", lambda: (_items_json(table, view),)),
    )
    if args.verify:
        ok = tuple(refined_levels(table, (n + 1, tile_levels(table, n + 1, upto)))) == view.levels
        rep.row(
            "verification",
            {"target": "partition", "ok": ok, "detail": None if ok else "one-step regrouping disagrees"},
            f"regrouping against the level-{n + 1} tiling: {'OK' if ok else 'MISMATCH'}",
        )
        if not ok:
            raise VerificationError(f"level-{n} tiling does not regroup the level-{n + 1} tiling")
    return 0
