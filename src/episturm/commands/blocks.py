"""`blocks`: the block, palindromic prefix, tails and indices at one level."""

from __future__ import annotations

from ..errors import shorten
from ..spec import DirectiveSpec
from . import Reporter, build_table, index_payload, word_fields


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    table = build_table(spec, args.level_guard)
    n = args.n
    if n >= 0:  # refuse the block and its palindromic prefix, in the order they are built, before building either
        table.check_size(f"block at level {n}", table.block_length(n))
        table.check_size(f"palindromic prefix at level {n}", table.palindromic_prefix_length(n))
    w = table.block(n)
    first = table.first_letter_count(n)
    rep.row(
        "block",
        {"level": n, "first_letter_count": first, "other_letter_count": table.other_letter_count(n), **word_fields(w, args.full)},
        f"block level {n}: {len(w)} letters ({first} of {spec.alphabet[0]!r})  {shorten(w)}",
    )
    if n >= 0:
        p = table.palindromic_prefix(n)
        rep.row(
            "palindromic-prefix",
            {"level": n, **word_fields(p, args.full)},
            f"palindromic prefix: {len(p)} letters  {shorten(p)}",
        )
        for r in range(1, spec.k):
            g = table.block_tail(n, r)
            rep.row(
                "tail",
                {"level": n, "depth": r, **word_fields(g, args.full)},
                f"tail depth {r}: {len(g)} letters  {shorten(g)}",
            )
    if n >= 1:
        p = index_payload(table, n)
        rep.row(
            "index",
            p,
            f"indices: prefix {p['prefix_index']['text']} (witness {p['prefix_witness_length']} letters)"
            f" / block {p['block_index']['text']} (witness {p['block_witness_length']} letters)",
        )
    return 0
