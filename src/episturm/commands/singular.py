"""`singular`: the factor partition classes at one level."""

from __future__ import annotations

from ..directive import DirectiveSpec
from ..singular import factor_partition
from ..words import shorten
from . import Reporter, build_table


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    table = build_table(spec, args.level_guard)
    n = args.n
    size = table.block_length(n)
    table.check_size(f"the level-{n} partition", spec.k * size * size)
    part = factor_partition(table, n)
    for r in range(spec.k):
        members = sorted(part.singular[r] if r else part.rotations)
        payload = {"level": n, "r": r, "width": size, "size": len(members), "first": members[0], "last": members[-1]}
        if args.full:
            payload["members"] = members
        label = "rotations of the block" if r == 0 else f"singular kind {r}"
        text = [f"{label}: {len(members)} factors of length {size}  {shorten(members[0])} .. {shorten(members[-1])}"]
        if args.full:
            text.extend(f"  {m}" for m in members)
        rep.row("singular-class", payload, text)
    rep.row(
        "singular-summary",
        {"level": n, "classes": spec.k, "total": part.total_count(), "expected_total": (spec.k - 1) * size + 1},
        f"total: {part.total_count()} factors in {spec.k} classes (expected {(spec.k - 1) * size + 1})",
    )
    return 0
