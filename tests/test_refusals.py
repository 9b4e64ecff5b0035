"""Public entry points refuse input outside their documented domain, each with its own error and message."""

import pytest

from episturm.blocks import BlockTable
from episturm.directive import (
    PalindromicPrefixTable,
    block_letter,
    closure_prefix,
    directive_letter,
    exponent_sum,
    prefix_increment,
)
from episturm.errors import ParseError, RangeError
from episturm.oracle import (
    certified_scan,
    count_factors,
    generate_prefix,
    greatest_power_prefix,
    naive_scan,
    scan_powers_multi,
)
from episturm.powers import length_sets, witness_letters
from episturm.spec import DirectiveSpec, exponent

from conftest import SPEC_TEXTS

TRIB = DirectiveSpec.parse(SPEC_TEXTS["tribonacci"])
FINITE = DirectiveSpec.parse("k=2; d=1,2")


@pytest.mark.parametrize(
    "call, args, error, fragment",
    [
        (DirectiveSpec, ("a", (1,), ()), ParseError, "at least 2 letters"),
        (DirectiveSpec, ("abcdefghijklmnopqrstuvwxyz" + "0", (1,), ()), ParseError, "beyond 26 letters"),
        (DirectiveSpec, ("aba", (1,), ()), ParseError, "must be distinct"),
        (exponent, (TRIB, 0), RangeError, "exponent index 0 must be >= 1"),
        (exponent_sum, (FINITE, 3), RangeError, "finite with 2 exponents; cannot sum 3"),
        (block_letter, (TRIB, 0), RangeError, "entry index 0 must be >= 1"),
        (directive_letter, (TRIB, 0), RangeError, "letter position 0 must be >= 1"),
        (prefix_increment, (TRIB, -1), RangeError, "increment level must be >= 0"),
        (PalindromicPrefixTable(TRIB).prefix, (0,), RangeError, "closure index 0 must be >= 1"),
        (PalindromicPrefixTable(TRIB).prefix_of_length, (-1,), RangeError, "length must be nonnegative"),
        (closure_prefix, (TRIB, -1), RangeError, "length must be nonnegative"),
        (witness_letters, (BlockTable(TRIB), 0, 2), RangeError, "m_max must be >= 1 (got 0)"),
        (length_sets, (BlockTable(TRIB), 0), RangeError, "length grid starts at level 1 (got 0)"),
        (generate_prefix, (BlockTable(TRIB), 0), RangeError, "min_length must be >= 1 (got 0)"),
        (naive_scan, ("abab", 1, 1, 2), RangeError, "power order must be >= 2 (got 1)"),
        (naive_scan, ("abab", 2, 2, 3), RangeError, "bad length range 2..3 for 4 letters at order 2"),
        (certified_scan, (BlockTable(TRIB), 0, 2), RangeError, "m_max must be >= 1 (got 0)"),
        (certified_scan, (BlockTable(TRIB), 1, 1), RangeError, "l_max must be >= 2 (got 1)"),
        (greatest_power_prefix, ("abab", ""), RangeError, "base must be nonempty"),
        (scan_powers_multi, ("abab", (2,), 1, 2, 5), RangeError, "the XOR shifts cannot read 5 letters of a prefix of 4"),
    ],
    ids=lambda v: getattr(v, "__qualname__", None),
)
def test_out_of_domain_input_is_refused(call, args, error, fragment):
    with pytest.raises(error) as raised:
        call(*args)
    assert type(raised.value) is error
    assert fragment in str(raised.value)


def test_a_count_with_no_prefix_as_long_as_the_factors_finds_none():
    assert count_factors(iter(["ab", "abc"]), 4, 1) == (0, 0)
    assert count_factors(iter([]), 1, 1) == (0, 0)
