"""Shared fixtures: the reference directive specs, their block tables, and
one certified oracle scan per spec (built once, reused by every test that
needs a brute-force ground truth)."""

import pytest

from episturm.blocks import BlockTable
from episturm.spec import DirectiveSpec
from episturm.oracle import certified_scan

SPEC_TEXTS = {
    "fibonacci": "k=2; d=; 1",
    "k2_mixed": "k=2; d=1,2; 3",
    "tribonacci": "k=3; d=; 1",
    "k3_mixed": "k=3; d=1,1,2; 2,1,2",
    "k4_bonacci": "k=4; d=; 1",
    "k4_mixed": "k=4; d=2,1,3,1; 2,2",
    "k5_bonacci": "k=5; d=; 1",
}

# the six specs the oracle-equivalence and index criteria sweep
SWEEP_NAMES = ("fibonacci", "k2_mixed", "tribonacci", "k3_mixed", "k4_bonacci", "k4_mixed")
KBONACCI_NAMES = ("tribonacci", "k4_bonacci", "k5_bonacci")
ALL_NAMES = tuple(SPEC_TEXTS)


def is_primitive(w: str) -> bool:
    """Reference: w is no power u^j, j >= 2, of a shorter word."""
    return not any(w == w[:q] * (len(w) // q) for q in range(1, len(w)) if len(w) % q == 0)


def palindromic_prefix_by_recursion(table: BlockTable, n: int) -> str:
    """Reference: Pal_n = B_n^(d_(n+1)) Pal_(n-k) from level k on, and B_n^(d_(n+1)) less its last letter below."""
    copies = table.block(n) * table.exponent(n + 1)
    return copies[:-1] if n < table.spec.k else copies + palindromic_prefix_by_recursion(table, n - table.spec.k)


def block_tail_by_cancellation(table: BlockTable, n: int, r: int) -> str:
    """Reference: block n with Pal_(n-r) cancelled from its front, for n >= r; the cancellation must match."""
    w, p = table.block(n), palindromic_prefix_by_recursion(table, n - r)
    assert w.startswith(p)
    return w[len(p):]


@pytest.fixture(scope="session")
def tables() -> dict[str, BlockTable]:
    return {name: BlockTable(DirectiveSpec.parse(text)) for name, text in SPEC_TEXTS.items()}


@pytest.fixture(scope="session")
def certificates(tables):
    """Per spec: (PrefixCertificate, {l: ScanResult}) covering every base length
    up to the level-6 block length at orders 2..4."""
    out = {}
    for name, table in tables.items():
        out[name] = certified_scan(table, table.block_length(6), 4)
    return out
