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
