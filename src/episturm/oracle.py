"""Scanning oracle: literal repetition search over materialized prefixes.

Everything here works by comparing letters, never by the closed forms, so
its answers are an independent route for the census and index formulas. The
fast path compares the prefix against itself at a fixed shift with numpy and
reads maximal equality runs; a naive double loop stays available as the
meta-oracle for small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockTable
from .directive import closure_prefix
from .errors import NotAFactorError, RangeError, VerificationError
from .words import RationalIndex, Word, occurrences

_PREFIX_CROSSCHECK_LETTERS = 20_000


@dataclass(frozen=True)
class ScanResult:
    """Bases found by one scan: per_length maps m to the set of length-m words w with w**l inside the prefix."""

    l: int
    per_length: dict[int, frozenset]
    positions: dict[int, dict[Word, tuple[int, ...]]] | None = None


@dataclass(frozen=True)
class PrefixCertificate:
    """A finite prefix whose repetition content is stable, with the evidence that made it so."""

    word: Word
    covered_m_max: int
    method: str


def generate_prefix(table: BlockTable, min_length: int) -> Word:
    """The smallest block of length >= min_length (any block is a prefix of the word)."""
    if min_length < 1:
        raise RangeError(f"min_length must be >= 1 (got {min_length})")
    n = 1
    while table.block_length(n) < min_length:
        n += 1
    return table.block(n)


def _byte_view(prefix: Word) -> np.ndarray:
    return np.frombuffer(prefix.encode("ascii"), dtype=np.uint8)


def _true_runs(mask: np.ndarray) -> np.ndarray:
    """Maximal True runs of a bool array as an (r, 2) array of [start, end) pairs."""
    if mask.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    padded = np.empty(mask.size + 2, dtype=bool)
    padded[0] = padded[-1] = False
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges.reshape(-1, 2)


def _bases_in_runs(prefix: Word, runs: np.ndarray, m: int, l: int) -> set[Word]:
    """Distinct bases whose l-th power fits in some period-m run.

    Within one run [a, b) every qualifying start at or past a+m repeats the
    base seen one period earlier, so scanning starts up to a+m-1 is complete.
    """
    need = (l - 1) * m
    spans = runs[:, 1] - runs[:, 0]
    picked = runs[spans >= need]
    if not picked.size:
        return set()
    a = picked[:, 0]
    counts = np.minimum(picked[:, 1] - need, a + m - 1) - a + 1
    offsets = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = np.repeat(a, counts) + offsets
    return {prefix[i:i + m] for i in starts.tolist()}


def scan_powers(
    prefix: Word,
    l: int,
    m_min: int,
    m_max: int,
    *,
    record_positions: bool = False,
) -> ScanResult:
    """All bases with base**l inside prefix, for every base length in m_min..m_max."""
    return scan_powers_multi(prefix, (l,), m_min, m_max, record_positions=record_positions)[l]


def scan_powers_multi(
    prefix: Word,
    orders,
    m_min: int,
    m_max: int,
    *,
    record_positions: bool = False,
) -> dict[int, ScanResult]:
    """Scan several power orders at once, sharing the per-length run decomposition."""
    orders = sorted(set(orders))
    if not orders or orders[0] < 2:
        raise RangeError("power orders must all be >= 2")
    if not 1 <= m_min <= m_max:
        raise RangeError(f"bad length range {m_min}..{m_max}")
    if m_max * orders[-1] > len(prefix):
        raise RangeError(
            f"prefix of {len(prefix)} letters is too short for order {orders[-1]} at length {m_max}"
        )
    arr = _byte_view(prefix)
    all_m = range(m_min, m_max + 1)
    per_order: dict[int, dict[int, frozenset]] = {l: {} for l in orders}
    for m in all_m:
        runs = _true_runs(arr[m:] == arr[:-m])
        for l in orders:
            per_order[l][m] = frozenset(_bases_in_runs(prefix, runs, m, l))

    results: dict[int, ScanResult] = {}
    for l, per_length in per_order.items():
        positions = None
        if record_positions:
            positions = {
                m: {w: tuple(occurrences(prefix, w * l)) for w in sorted(per_length[m])}
                for m in all_m
            }
        results[l] = ScanResult(l=l, per_length=per_length, positions=positions)
    return results


def naive_scan(prefix: Word, l: int, m_min: int, m_max: int) -> dict[int, frozenset]:
    """Meta-oracle: the fully naive double loop. Only for short prefixes."""
    if l < 2:
        raise RangeError(f"power order must be >= 2 (got {l})")
    if not 1 <= m_min <= m_max <= len(prefix) // l:
        raise RangeError(f"bad length range {m_min}..{m_max} for {len(prefix)} letters at order {l}")
    out: dict[int, frozenset] = {}
    for m in range(m_min, m_max + 1):
        bases = set()
        for i in range(len(prefix) - l * m + 1):
            w = prefix[i:i + m]
            if prefix[i:i + l * m] == w * l:
                bases.add(w)
        out[m] = frozenset(bases)
    return out


def _stability_levels(table: BlockTable, m_max: int) -> tuple[int, int, int]:
    n = 1
    while table.block_length(n + 1) <= m_max:
        n += 1
    k = table.spec.k
    return n, n + k + 3, n + k + 4


def certified_scan(table: BlockTable, m_max: int, l_max: int):
    """Certify a prefix by scan stability across one level step, returning its scans too."""
    if m_max < 1:
        raise RangeError(f"m_max must be >= 1 (got {m_max})")
    if l_max < 2:
        raise RangeError(f"l_max must be >= 2 (got {l_max})")
    window, low, high = _stability_levels(table, m_max)
    orders = range(2, l_max + 1)
    last_diff = None
    for low, high in ((low, high), (low + 1, high + 1)):
        small = table.block(low)
        large = table.block(high)
        scans_small = scan_powers_multi(small, orders, 1, m_max)
        scans_large = scan_powers_multi(large, orders, 1, m_max)
        diffs = [
            (l, m)
            for l in orders
            for m in range(1, m_max + 1)
            if scans_small[l].per_length[m] != scans_large[l].per_length[m]
        ]
        if not diffs:
            checked = min(len(small), _PREFIX_CROSSCHECK_LETTERS)
            if closure_prefix(table.spec, checked) != small[:checked]:
                raise VerificationError(
                    f"block level {low} disagrees with the closure construction within {checked} letters"
                )
            method = (
                f"scan counts for orders 2..{l_max} at lengths 1..{m_max} identical on "
                f"block levels {low} ({len(small)} letters) and {high} ({len(large)} letters); "
                f"window level {window}, visibility bound level {window} + alphabet size + 2"
            )
            return PrefixCertificate(word=small, covered_m_max=m_max, method=method), scans_small
        last_diff = diffs[0]
    raise VerificationError(
        f"scan results still unstable after escalation: first difference at order/length {last_diff}"
    )


def certify_prefix(table: BlockTable, m_max: int, l_max: int) -> PrefixCertificate:
    """A prefix whose repetition content up to m_max is stable under one more level of growth."""
    return certified_scan(table, m_max, l_max)[0]


def max_fractional_power(prefix: Word, base: Word) -> RationalIndex:
    """Largest exponent (possibly fractional) with base**exponent a factor of prefix."""
    if not base:
        raise RangeError("base must be nonempty")
    found = occurrences(prefix, base)
    if not found:
        raise NotAFactorError("base does not occur in the prefix")
    m = len(base)
    arr = _byte_view(prefix)
    runs = _true_runs(arr[m:] == arr[:-m])
    starts = runs[:, 0]
    ends = runs[:, 1]
    best = m
    if starts.size:
        where = np.searchsorted(starts, found, side="right") - 1
        for i, j in zip(found, where.tolist()):
            if j >= 0 and i < ends[j]:
                best = max(best, m + int(ends[j]) - i)
    return RationalIndex(best // m, best % m, m)


def greatest_power_prefix(prefix: Word, base: Word) -> Word:
    """The longest prefix of prefix that is a (possibly fractional) power of base."""
    if not base:
        raise RangeError("base must be nonempty")
    if not prefix.startswith(base):
        raise NotAFactorError("base is not a prefix")
    m = len(base)
    arr = _byte_view(prefix)
    mask = arr[m:] == arr[:-m]
    extent = m
    if mask.size and mask[0]:
        falses = np.flatnonzero(~mask)
        extent = m + (int(falses[0]) if falses.size else mask.size)
    return prefix[:extent]
