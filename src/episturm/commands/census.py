"""`census`: which words of a given length have an l-th power in the word, checked against the oracle under --verify."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain

from ..blocks import BlockTable
from ..errors import GuardExceeded, ParseError, VerificationError, shorten
from ..powers import census, census_each, census_range, check_census_args, witness_letters
from ..spec import DirectiveSpec
from . import INLINE_WORD_LIMIT, Reporter, build_table, json_list

# `census --all-up-to N --full` prints a row for every length, from one walk over the window grids: on a 2-CPU
# x86-64 VM (Python 3.11), Tribonacci `--l 4` takes about 3.5 us a length as text and 8 us with --json, so 2^19
# lengths take about 1.9 and 4.3 s of CPU. Plain census ranges visit only their carrying lengths, and the table's
# length guard bounds their bases.
_CENSUS_RANGE_GUARD = 1 << 19
# `census --full` witness lists, count * m letters summed over the rows. A row holds its sorted list and writes it
# a witness at a time, as text or JSON: Tribonacci `--m 5768` (33.3M letters) takes 0.18 s and 47 MB max RSS with
# --json on the same VM, so 2^25 letters keep --full well within 160 MB and its witness output near 34 MB.
_WITNESS_LETTERS_GUARD = 1 << 25


def _census_rule(table: BlockTable, row) -> str | None:
    if row.count == 0:
        return None
    if row.count == table.block_length(row.provenance.level):
        return f"all {row.count} conjugates of {shorten(row.provenance.base)}"
    return f"first {row.count} conjugates of {shorten(row.provenance.base)}"


def _census_payload(table: BlockTable, row, full: bool) -> tuple[dict, Iterable[str], tuple | None]:
    """The census row, its text lines and, under --full, its `last` field: the sorted witnesses, one JSON piece each."""
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
        if full or len(prov.base) <= INLINE_WORD_LIMIT:
            payload["base"] = prov.base
    where = "off-grid" if prov.kind == "off-grid" else f"depth {prov.depth}, multiple {prov.multiplier}"
    text = f"m={row.m} l={row.l}: {row.count}  [window {prov.level}, {where}]"
    if payload.get("rule"):
        text += f"  {payload['rule']}"
    if full and row.count:
        witnesses = sorted(row.witnesses)
        return payload, chain((text,), (f"  {w}" for w in witnesses)), ("witnesses", lambda: json_list(witnesses))
    if full:  # an empty list goes inline, in the bytes json_list writes, and skips the streamed field's writes
        payload["witnesses"] = []
    return payload, (text,), None


def run(args, spec: DirectiveSpec, rep: Reporter) -> int:
    table = build_table(spec, args.level_guard)
    if (args.m is None) == (args.all_up_to is None):
        raise ParseError("pass exactly one of --m or --all-up-to")
    l = args.l
    ranged = args.all_up_to is not None
    m_max = args.all_up_to if ranged else args.m
    if args.full and ranged and m_max > _CENSUS_RANGE_GUARD:
        raise GuardExceeded(f"{m_max} lengths above the census range guard {_CENSUS_RANGE_GUARD}")
    # a bad length or order is refused first, with the closed forms' messages for a range or for one length
    check_census_args(m_max, l, ranged=ranged)
    m_min = 1 if ranged else m_max
    if args.verify:
        from ..directive import CLOSURE_CHECK_WORK
        from ..oracle import RotationClass, certified_scan, same_bases

        # certify first: its guards trip before any witness set is built
        certificate, scans = certified_scan(table, m_max, l, m_min=m_min)
    # each row is built as it prints; a range checks its bases' summed letters here, and without --full prints only
    # its carrying rows
    rows = census_range(table, m_max, l) if ranged else (census(table, m, l) for m in (m_max,))
    if args.full:
        # the witness lists are priced from the recurrences before any base is built
        letters = witness_letters(table, m_max, l, m_min=m_min)
        if letters and not ranged:  # a carrying length's base meets the length guard first, as census() builds it
            table.check_size(f"census base at m={m_max}", m_max)
        if letters > _WITNESS_LETTERS_GUARD:
            raise GuardExceeded(f"census witness lists to m={m_max} have {letters} letters, above the guard {_WITNESS_LETTERS_GUARD}")
        rows = census_each(table, m_min, m_max, l)
    carrying, mismatches = [], []
    for row in rows:
        rep.row("census-row", *_census_payload(table, row, args.full))
        if row.count:
            carrying.append(row.m)
            # a row's witnesses are rotations 0..count-1 of its base: one class, compared without building them
            if args.verify and not same_bases(scans[l].classes.pop(row.m), (RotationClass(row.provenance.base, ((0, row.count),)),)):
                mismatches.append(row.m)
    if ranged:
        rep.row(
            "census-summary",
            {"l": l, "m_max": m_max, "nonzero_lengths": carrying, "zero_count": m_max - len(carrying)},
            f"order {l}: {len(carrying)} carrying lengths up to {m_max}: {' '.join(map(str, carrying))}",
        )
    if args.verify:
        # the lengths no row carries, left in the scan, must have no bases either
        mismatches = sorted(mismatches + [m for m, found in scans[l].classes.items() if found])
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
                "built_letters": len(certificate.word),
                "scanned_letters": certificate.scanned_letters,
                "short_shift_letters": certificate.short_shift_letters,
                "short_factor_length": certificate.short_factor_length,
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
