"""Command-line front end: construct, inspect, partition, census, and verify.

Text output is one deterministic line per row; --json switches to JSON lines
carrying the same data (schema in report.schema.json next to this module).
Exit codes: 0 success, 2 usage or parse problem, 3 verification mismatch,
4 resource guard. EPISTURM_GUARD overrides the block-level guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import groupby, islice

# What the closed-form census, index and blocks run is imported here; checks, oracle,
# partition and singular are imported inside the subcommands that call them, so a
# start loads only the modules its subcommand runs.
from .blocks import BlockTable
from .directive import CLOSURE_CHECK_WORK, DirectiveSpec, closure_prefix, closure_reach
from .errors import (
    CancellationError,
    GuardExceeded,
    InvariantViolation,
    NotAFactorError,
    ParseError,
    RangeError,
    VerificationError,
)
from .powers import block_index, census, census_range, prefix_index
from .words import RationalIndex, shorten

_INLINE_WORD_LIMIT = 64

# Guards derived from measured cost (2-CPU x86-64 VM, Python 3.11). `generate`
# bounds the letters its closure steps scan, |u_j| summed over the steps from
# the integer length recurrence, not the letters it prints: a long run of one
# letter makes that sum quadratic in the output. At 2^25 letters a child takes 0.28 s
# and 81 MB on the Tribonacci word (19M letters out), 0.23 s and 45 MB on `k=2; d=8000; 1` (16,000). A
# `census --full` row costs about 20 us per length (2^20 lengths: 20 s; plain
# census ranges visit only their carrying lengths, and the table's length guard
# bounds their bases). A partition tile costs about 2.7 us and 190 bytes with
# --json --verify (2^20 tiles: 3 s, 200 MB); the battery 0.17 us and 12 bytes per
# letter of block n + 2, its largest, above a 0.5 s floor (2^25: 6 s, 440 MB).
_GENERATE_GUARD = 1 << 25
_CENSUS_RANGE_GUARD = 1 << 20
_PARTITION_TILE_GUARD = 1 << 20
_BATTERY_LETTER_GUARD = 1 << 25

_USAGE_ERRORS = (ParseError, RangeError, CancellationError, NotAFactorError)
_VERIFY_ERRORS = (VerificationError, InvariantViolation)


class Reporter:
    """Collects rows and prints them as text lines or JSON lines."""

    def __init__(self, command: str, spec_text: str, as_json: bool):
        self.command = command
        self.spec_text = spec_text
        self.as_json = as_json

    def row(self, kind: str, payload: dict, text=None) -> None:
        if self.as_json:
            print(json.dumps({"kind": kind, **payload}, ensure_ascii=True))
        elif text is not None:
            lines = [text] if isinstance(text, str) else text
            for line in lines:
                print(line)

    def status(self, ok: bool, error: str | None = None) -> None:
        if self.as_json:
            self.row("status", {"command": self.command, "spec": self.spec_text, "ok": ok, "error": error})
        elif error is not None:
            print(f"episturm {self.command}: {error}", file=sys.stderr)


def _word_fields(w: str, full: bool) -> dict:
    fields: dict = {"length": len(w), "preview": shorten(w)}
    if full or len(w) <= _INLINE_WORD_LIMIT:
        fields["word"] = w
    return fields


def _rational_fields(value: RationalIndex) -> dict:
    return {"text": str(value), "whole": value.whole, "num": value.num, "den": value.den}


def _index_payload(table: BlockTable, n: int) -> dict:
    """The level-n index row; witness lengths come from the indices, no witness is built."""
    pre = prefix_index(table, n)
    blk = block_index(table, n)
    return {
        "level": n,
        "prefix_index": _rational_fields(pre),
        "prefix_witness_length": pre.length,
        "block_index": _rational_fields(blk),
        "block_witness_length": blk.length,
    }


def _build_table(spec: DirectiveSpec) -> BlockTable:
    raw = os.environ.get("EPISTURM_GUARD")
    if raw is None:
        return BlockTable(spec)
    try:
        level_guard = int(raw)
    except ValueError:
        raise ParseError(f"EPISTURM_GUARD must be an integer (got {raw!r})")
    return BlockTable(spec, level_guard=level_guard)


# -- subcommands ---------------------------------------------------------------


def cmd_generate(args, rep: Reporter) -> int:
    if args.length < 0:
        raise RangeError(f"length must be >= 0 (got {args.length})")
    spec = DirectiveSpec.parse(args.spec)
    if args.length > closure_reach(spec, _GENERATE_GUARD):
        raise GuardExceeded(f"length {args.length}: the closure steps scan more than the guard of {_GENERATE_GUARD} letters")
    word = closure_prefix(spec, args.length)
    rep.row("prefix", {"length": len(word), "word": word}, word if word else None)
    return 0


def cmd_blocks(args, rep: Reporter) -> int:
    spec = DirectiveSpec.parse(args.spec)
    table = _build_table(spec)
    n = args.n
    w = table.block(n)
    first = table.first_letter_count(n)
    rep.row(
        "block",
        {"level": n, "first_letter_count": first, "other_letter_count": table.other_letter_count(n), **_word_fields(w, args.full)},
        f"block level {n}: {len(w)} letters ({first} of {spec.alphabet[0]!r})  {shorten(w)}",
    )
    if n >= 0:
        p = table.palindromic_prefix(n)
        rep.row(
            "palindromic-prefix",
            {"level": n, **_word_fields(p, args.full)},
            f"palindromic prefix: {len(p)} letters  {shorten(p)}",
        )
        for r in range(1, spec.k):
            g = table.block_tail(n, r)
            rep.row(
                "tail",
                {"level": n, "depth": r, **_word_fields(g, args.full)},
                f"tail depth {r}: {len(g)} letters  {shorten(g)}",
            )
    if n >= 1:
        p = _index_payload(table, n)
        rep.row(
            "index",
            p,
            f"indices: prefix {p['prefix_index']['text']} (witness {p['prefix_witness_length']} letters)"
            f" / block {p['block_index']['text']} (witness {p['block_witness_length']} letters)",
        )
    return 0


def cmd_singular(args, rep: Reporter) -> int:
    from .singular import factor_partition

    spec = DirectiveSpec.parse(args.spec)
    table = _build_table(spec)
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


def _run_lengths(levels) -> str:
    """The first 40 runs of equal levels as `level` or `levelxcount`, and ` ...` when more follow."""
    runs = [(level, sum(1 for _ in run)) for level, run in islice(groupby(levels), 41)]
    return " ".join(f"{level}x{count}" if count > 1 else f"{level}" for level, count in runs[:40]) + (" ..." if len(runs) > 40 else "")


def cmd_partition(args, rep: Reporter) -> int:
    from .partition import level_partition, refined_levels, tile_count

    spec = DirectiveSpec.parse(args.spec)
    table = _build_table(spec)
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


def cmd_index(args, rep: Reporter) -> int:
    spec = DirectiveSpec.parse(args.spec)
    table = _build_table(spec)
    if (args.n is None) == (args.all_up_to is None):
        raise ParseError("pass exactly one of --n or --all-up-to")
    if args.all_up_to is not None and args.all_up_to < 1:
        raise RangeError(f"index levels start at 1 (got --all-up-to {args.all_up_to})")
    levels = [args.n] if args.n is not None else range(1, args.all_up_to + 1)
    for n in levels:
        p = _index_payload(table, n)
        rep.row(
            "index",
            p,
            f"level {n}: prefix index {p['prefix_index']['text']} (witness {p['prefix_witness_length']} letters)"
            f" / block index {p['block_index']['text']}",
        )
        if args.verify:
            from .oracle import greatest_power_prefix, max_fractional_power

            host = table.block(n + spec.k + 3)
            measured = max_fractional_power(host, table.block(n))
            front = greatest_power_prefix(host, table.block(n))
            blk = block_index(table, n)
            ok = measured.as_fraction() == blk.as_fraction() and front == table.power_prefix(n + 1)
            rep.row(
                "verification",
                {
                    "target": "index",
                    "level": n,
                    "ok": ok,
                    "oracle_block_index": _rational_fields(measured),
                    "oracle_prefix_witness_length": len(front),
                    "detail": None,
                },
                f"  oracle on {len(host)} letters: block index {measured}, power prefix {len(front)} letters: {'OK' if ok else 'MISMATCH'}",
            )
            if not ok:
                raise VerificationError(f"oracle disagrees with the closed form at level {n}")
    return 0


def _census_rule(table: BlockTable, row) -> str | None:
    if row.count == 0:
        return None
    if row.count == table.block_length(row.provenance.level):
        return f"all {row.count} conjugates of {shorten(row.provenance.base)}"
    return f"first {row.count} conjugates of {shorten(row.provenance.base)}"


def _census_payload(table: BlockTable, row, full: bool) -> tuple[dict, str]:
    """The census row without its witnesses, which the caller adds under --full."""
    prov = row.provenance
    payload = {
        "m": row.m,
        "l": row.l,
        "count": row.count,
        "provenance": {"kind": prov.kind, "level": prov.level, "depth": prov.depth, "multiplier": prov.multiplier},
        "rule": _census_rule(table, row),
    }
    if prov.base is not None:
        payload["base_preview"] = shorten(prov.base)
        if full or len(prov.base) <= _INLINE_WORD_LIMIT:
            payload["base"] = prov.base
    where = f"window {prov.level}"
    if prov.kind == "off-grid":
        where += ", off-grid"
    else:
        where += f", depth {prov.depth}, multiple {prov.multiplier}"
    text = f"m={row.m} l={row.l}: {row.count}  [{where}]"
    if payload.get("rule"):
        text += f"  {payload['rule']}"
    return payload, text


def cmd_census(args, rep: Reporter) -> int:
    spec = DirectiveSpec.parse(args.spec)
    table = _build_table(spec)
    if (args.m is None) == (args.all_up_to is None):
        raise ParseError("pass exactly one of --m or --all-up-to")
    l = args.l
    ranged = args.all_up_to is not None
    m_max = args.all_up_to if ranged else args.m
    if args.full and ranged and m_max > _CENSUS_RANGE_GUARD:
        raise GuardExceeded(f"{m_max} lengths above the census range guard {_CENSUS_RANGE_GUARD}")
    if args.verify:
        from .oracle import RotationClass, certified_scan, same_bases

        # certify first: its guards trip before any witness set is built
        certificate, scans = certified_scan(table, m_max, l, m_min=1 if ranged else m_max)
    rows = census_range(table, m_max, l).nonzero if ranged else [census(table, m_max, l)]
    carrying = {row.m: row for row in rows if row.count}
    if args.full:
        table.check_size(f"census witness lists to m={m_max}", sum(row.count * row.m for row in carrying.values()))
        if ranged:
            rows = (carrying[m] if m in carrying else census(table, m, l) for m in range(1, m_max + 1))
    for row in rows:
        payload, text = _census_payload(table, row, args.full)
        if args.full:
            payload["witnesses"] = witnesses = sorted(row.witnesses)
        rep.row("census-row", payload, text)
        if args.full and witnesses:
            rep.row("witness-list", {"m": row.m, "l": l, "witnesses": witnesses}, [f"  {w}" for w in witnesses])
    if ranged:
        rep.row(
            "census-summary",
            {"l": l, "m_max": m_max, "nonzero_lengths": list(carrying), "zero_count": m_max - len(carrying)},
            f"order {l}: {len(carrying)} carrying lengths up to {m_max}: {' '.join(map(str, carrying))}",
        )
    if args.verify:
        # a row's witnesses are rotations 0..count-1 of its base: one class, compared without building them
        expected = {m: (RotationClass(row.provenance.base, ((0, row.count),)),) for m, row in carrying.items()}
        mismatches = [m for m, found in scans[l].classes.items() if not same_bases(found, expected.get(m, ()))]
        ok = not mismatches
        rep.row(
            "verification",
            {
                "target": "census",
                "l": l,
                "m_max": m_max,
                "ok": ok,
                "factor_length": certificate.factor_length,
                "factors": certificate.factors,
                "block_level": certificate.block_level,
                "prefix_letters": len(certificate.word),
                "scanned_letters": certificate.scanned_letters,
                "closure_checked_letters": certificate.closure_checked_letters,
                "closure_cap": CLOSURE_CHECK_WORK,
                "mismatched_lengths": mismatches,
            },
            f"oracle agreement at order {l} on {'lengths 1..' if ranged else 'length '}{m_max} over {certificate.scanned_letters} letters"
            f" holding all {certificate.factors} factors of length {certificate.factor_length}: "
            + ("OK" if ok else f"MISMATCH at {mismatches}"),
        )
        if not ok:
            raise VerificationError("closed-form census disagrees with the oracle scan")
    return 0


def cmd_verify(args, rep: Reporter) -> int:
    from .checks import run_battery

    spec = DirectiveSpec.parse(args.spec)
    table = _build_table(spec)
    n_max = args.n if args.n is not None else 8
    if n_max < 0:
        raise RangeError(f"battery level must be >= 0 (got {n_max})")
    letters = table.block_length(n_max + 2)
    if letters > _BATTERY_LETTER_GUARD:
        raise GuardExceeded(
            f"battery to level {n_max} builds block {n_max + 2}: {letters} letters, above the guard {_BATTERY_LETTER_GUARD}"
        )
    failures = 0
    for name, error in run_battery(table, n_max):
        ok = error is None
        failures += 0 if ok else 1
        rep.row(
            "check",
            {"name": name, "ok": ok, "detail": None if ok else str(error)},
            f"{'PASS' if ok else 'FAIL'} {name}" + ("" if ok else f": {error}"),
        )
    rep.row(
        "verify-summary",
        {"n_max": n_max, "failures": failures},
        f"battery up to level {n_max}: {'all checks pass' if failures == 0 else f'{failures} checks FAILED'}",
    )
    if failures:
        raise VerificationError(f"{failures} invariant checks failed")
    return 0


# -- argument plumbing ---------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episturm",
        description="Construct episturmian words from directive exponents and enumerate their powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, n=False, full=False, verify=False):
        p.add_argument("--spec", required=True, help='directive, e.g. "k=3; d=1,1,2; 2,1,2" or "k=3; d=; 1"')
        p.add_argument("--json", action="store_true", help="emit JSON lines instead of text")
        if n:
            p.add_argument("--n", type=int, help="block level")
        if full:
            p.add_argument("--full", action="store_true", help="expand words and witness sets in full")
        if verify:
            p.add_argument("--verify", action="store_true", help="cross-check against the scanning oracle")

    p = sub.add_parser("generate", help="print a prefix of the word")
    common(p)
    p.add_argument("--length", type=int, required=True, help="how many letters")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("blocks", help="block, palindromic prefix, tails and indices at one level")
    common(p, n=True, full=True)
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("singular", help="factor partition classes at one level")
    common(p, n=True, full=True)
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("partition", help="tiling of a block by the level-n window blocks")
    common(p, n=True, verify=True)
    p.add_argument("--m", type=int, help="host block level to tile (default: two above --n)")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("index", help="prefix and block indices with witnesses")
    common(p, n=True, verify=True)
    p.add_argument("--all-up-to", type=int, help="report levels 1..N")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("census", help="which words of a given length have an l-th power in the word")
    common(p, full=True, verify=True)
    p.add_argument("--m", type=int, help="single base length")
    p.add_argument("--all-up-to", type=int, help="all base lengths 1..N")
    p.add_argument("--l", type=int, default=2, help="power order (default 2)")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("verify", help="run the whole invariant battery")
    common(p, n=True)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    required_n = args.command in ("blocks", "singular", "partition")
    rep = Reporter(args.command, args.spec, args.json)
    try:
        if required_n and args.n is None:
            raise ParseError(f"{args.command} needs --n")
        code = args.fn(args, rep)
        rep.status(True)
        return code
    except _USAGE_ERRORS as exc:
        rep.status(False, str(exc))
        return 2
    except _VERIFY_ERRORS as exc:
        rep.status(False, str(exc))
        return 3
    except GuardExceeded as exc:
        rep.status(False, str(exc))
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
