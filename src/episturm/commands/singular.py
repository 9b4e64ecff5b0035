"""`singular`: the factor partition classes at one level."""

from __future__ import annotations

from itertools import chain

from ..errors import shorten
from ..singular import factor_partition
from ..spec import DirectiveSpec
from . import Reporter, build_table, json_list


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    table = build_table(spec, args.level_guard)
    n = args.n
    size = table.block_length(n)
    table.check_size(f"the level-{n} partition", spec.k * size * size)
    part = factor_partition(table, n)
    for r in range(spec.k):
        members = sorted(part.singular[r] if r else part.rotations)
        payload = {"level": n, "r": r, "width": size, "size": len(members), "first": members[0], "last": members[-1]}
        label = "rotations of the block" if r == 0 else f"singular kind {r}"
        head = f"{label}: {len(members)} factors of length {size}  {shorten(members[0])} .. {shorten(members[-1])}"
        if args.full:  # the members are printed one at a time, as text lines or JSON pieces, never copied whole
            rep.row("singular-class", payload, chain((head,), (f"  {m}" for m in members)), last=("members", lambda: json_list(members)))
        else:
            rep.row("singular-class", payload, head)
    rep.row(
        "singular-summary",
        {"level": n, "classes": spec.k, "total": part.total_count(), "expected_total": (spec.k - 1) * size + 1},
        f"total: {part.total_count()} factors in {spec.k} classes (expected {(spec.k - 1) * size + 1})",
    )
    return 0
