"""`index`: the prefix and block indices per level, checked against the one-shift oracle (`runs`) under --verify."""

from __future__ import annotations

from ..errors import ParseError, RangeError, VerificationError
from ..powers import block_index, witness_host_level
from ..spec import DirectiveSpec
from . import Reporter, build_table, index_payload, rational_fields


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    table = build_table(spec, args.level_guard)
    if (args.n is None) == (args.all_up_to is None):
        raise ParseError("pass exactly one of --n or --all-up-to")
    if args.all_up_to is not None and args.all_up_to < 1:
        raise RangeError(f"index levels start at 1 (got --all-up-to {args.all_up_to})")
    levels = [args.n] if args.n is not None else range(1, args.all_up_to + 1)
    if args.verify:
        from ..runs import greatest_power_prefix, max_fractional_power
    for n in levels:
        p = index_payload(table, n)
        rep.row(
            "index",
            p,
            f"level {n}: prefix index {p['prefix_index']['text']} (witness {p['prefix_witness_length']} letters)"
            f" / block index {p['block_index']['text']}",
        )
        if args.verify:
            host_level = witness_host_level(table, n)
            host, block = table.block(host_level), table.block(n)
            measured = max_fractional_power(host, block)
            front = greatest_power_prefix(host, block)
            blk = block_index(table, n)
            ok = measured == blk and front == table.power_prefix(n + 1)
            rep.row(
                "verification",
                {
                    "target": "index",
                    "level": n,
                    "host_level": host_level,
                    "ok": ok,
                    "oracle_block_index": rational_fields(measured),
                    "oracle_prefix_witness_length": len(front),
                    "detail": None,
                },
                f"  oracle on {len(host)} letters: block index {measured}, power prefix {len(front)} letters: {'OK' if ok else 'MISMATCH'}",
            )
            if not ok:
                raise VerificationError(f"oracle disagrees with the closed form at level {n}")
    return 0
