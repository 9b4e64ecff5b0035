"""End-to-end acceptance: frozen byte values, dual-route equivalences, budgets.

One test per criterion; every expected value below was computed by the
scanning oracle or checked against the frozen worked example before being
written down. No criterion may be weakened: a closed-form route and its
oracle route must both run and agree.
"""

import time
from fractions import Fraction

from episturm.blocks import BlockTable
from episturm.checks import run_battery
from episturm.directive import closure_prefix
from episturm.oracle import certified_scan, generate_prefix, greatest_power_prefix, max_fractional_power
from episturm.powers import block_index, census
from episturm.singular import factor_partition
from episturm.spec import DirectiveSpec
from episturm.words import factors_of_length, reversal

from conftest import ALL_NAMES, KBONACCI_NAMES, SPEC_TEXTS, SWEEP_NAMES

WORKED = "k=3; d=1,1,2; 2,1,2"

WORKED_BLOCKS = {
    1: "ab",
    2: "abac",
    3: "abacabacaba",
    4: "abacabacabaabacabacabaabacabacab",
    5: "abacabacabaabacabacabaabacabacababacabacabaabacabacabaabac",
}

WORKED_PREFIXES = {
    0: "",
    1: "a",
    2: "abacaba",
    3: "abacabacabaabacabacaba",
}

WORKED_CENSUS = {
    (11, 2): 11, (22, 2): 1, (32, 2): 32, (58, 2): 58, (116, 2): 8,
    (15, 2): 8, (26, 2): 8, (21, 2): 2, (43, 2): 23, (90, 2): 34,
    (148, 2): 34, (101, 2): 23,
    (11, 3): 11, (22, 3): 0, (32, 3): 2, (58, 3): 58, (116, 3): 0,
}


def test_criterion_01_worked_example_blocks_prefixes_and_census():
    start = time.perf_counter()
    table = BlockTable(DirectiveSpec.parse(WORKED))
    for n, expected in WORKED_BLOCKS.items():
        assert table.block(n) == expected, f"block {n}"
    assert table.block_length(4) == 32 and table.block_length(5) == 58
    for n, expected in WORKED_PREFIXES.items():
        assert table.palindromic_prefix(n) == expected, f"palindromic prefix {n}"
    assert table.palindromic_prefix_length(3) == 22
    for (m, l), expected in WORKED_CENSUS.items():
        assert census(table, m, l).count == expected, f"p({m};{l})"
    assert time.perf_counter() - start < 5.0


def test_criterion_02_explicit_square_and_cube_witnesses():
    table = BlockTable(DirectiveSpec.parse(WORKED))
    s3, s4 = table.block(3), table.block(4)

    squares_22 = census(table, 22, 2).witnesses
    assert squares_22 == (s3 + s3,)
    assert squares_22 == ("abacabacabaabacabacaba",)

    base = "abacabacabaabac"
    squares_15 = census(table, 15, 2).witnesses
    assert squares_15 == tuple(base[j:] + base[:j] for j in range(8))
    assert squares_15[0] == "abacabacabaabac" and squares_15[7] == "cabaabacabacaba"

    cubes_32 = census(table, 32, 3).witnesses
    assert cubes_32 == (s4, s4[1:] + s4[0])


def test_criterion_03_census_matches_oracle_on_certified_prefixes(tables):
    start = time.perf_counter()
    for name in SWEEP_NAMES:
        table = tables[name]
        m_max = table.block_length(6)
        certificate, scans = certified_scan(table, m_max, 4)
        for l in (2, 3, 4):
            scanned = scans[l].per_length
            for m in range(1, m_max + 1):
                expected = frozenset(census(table, m, l).witnesses)
                assert scanned[m] == expected, f"{name}: m={m} l={l}"
    assert time.perf_counter() - start < 120.0


def test_criterion_04_fractional_index_and_power_prefix(tables, certificates):
    for name in SWEEP_NAMES:
        table = tables[name]
        k = table.spec.k
        word = certificates[name][0].word
        for n in range(1, 7):
            base = table.block(n)
            expected = Fraction(2 + table.exponent(n + 1)) + Fraction(
                table.palindromic_prefix_length(n - k), table.block_length(n)
            )
            measured = max_fractional_power(word, base)
            assert measured.as_fraction() == expected, f"{name}: index at level {n}"
            assert block_index(table, n).as_fraction() == expected
            assert greatest_power_prefix(word, base) == table.power_prefix(n + 1), f"{name}: power prefix {n}"


def test_criterion_05_factor_partition_matches_enumerated_factors(tables, certificates):
    for name in SWEEP_NAMES:
        table = tables[name]
        k = table.spec.k
        word = certificates[name][0].word
        for n in range(1, 7):
            size = table.block_length(n)
            part = factor_partition(table, n)
            classes = [part.rotations] + [part.singular[r] for r in range(1, k)]
            assert len(part.rotations) == size
            for r in range(1, k):
                assert len(part.singular[r]) == len(table.block_tail(n, r)) - 1, f"{name}: class {r} at {n}"
            for i in range(len(classes)):
                assert all(reversal(w) in classes[i] for w in classes[i])
                for j in range(i + 1, len(classes)):
                    assert not (classes[i] & classes[j])
            union = frozenset().union(*classes)
            assert len(union) == (k - 1) * size + 1
            assert union == factors_of_length(word, size), f"{name}: factor set at level {n}"


def test_criterion_06_kbonacci_words_have_no_fourth_powers(tables):
    start = time.perf_counter()
    for name in KBONACCI_NAMES:
        table = tables[name]
        m_max = table.block_length(6)
        _, scans = certified_scan(table, m_max, 4)
        for m in range(1, m_max + 1):
            assert scans[4].per_length[m] == frozenset(), f"{name}: oracle found a 4th power of length {m}"
            assert census(table, m, 4).count == 0, f"{name}: census claims a 4th power of length {m}"
    assert time.perf_counter() - start < 60.0


def test_criterion_07_identity_battery_to_level_12(tables):
    for name in ALL_NAMES:
        failures = [(check, str(err)) for check, err in run_battery(tables[name], 12) if err is not None]
        assert failures == [], f"{name}: {failures}"


def test_criterion_08_closure_and_block_constructions_agree(tables):
    target = 10**5
    for name in ALL_NAMES:
        spec = DirectiveSpec.parse(SPEC_TEXTS[name])
        via_closure = closure_prefix(spec, target)
        via_blocks = generate_prefix(tables[name], target)[:target]
        assert via_closure == via_blocks, f"{name}: constructions disagree inside the first {target} letters"
