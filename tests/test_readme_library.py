"""The README's library example runs as printed, and its comments state what it returns."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).parents[1] / "README.md").read_text()
EXAMPLE = re.search(r"^## Library\n\n```python\n(.*?)^```", README, re.M | re.S).group(1)

# each expression with the repr its comment gives
STATED = [
    ("table.block(3)", "'abacabacaba'"),
    ("table.palindromic_prefix(3)", "'abacabacabaabacabacaba'"),
    ("row.count", "8"),
    ("row.witnesses[0]", "'abacabacabaabac'"),
    ("[r.m for r in census_range(table, 58, 2)][-3:]", "[32, 43, 58]"),
    ("scans[2].classes[15]", "(RotationClass(word='abacabacabaabac', spans=((0, 8),), period=15),)"),
    ("scans[2].per_length[15] == frozenset(row.witnesses)", "True"),
    ("max_fractional_power(certificate.word, table.block(3)).as_fraction()", "Fraction(4, 1)"),
]


@pytest.fixture(scope="module")
def names():
    found: dict = {}
    exec(compile(EXAMPLE, "README.md", "exec"), found)
    return found


@pytest.mark.parametrize("expression, said", STATED, ids=[expression for expression, _ in STATED])
def test_each_commented_value_is_what_the_line_returns(names, expression, said):
    assert re.search(rf"^{re.escape(expression)} +# {re.escape(said)}(?: |$)", EXAMPLE, re.M)
    assert repr(eval(expression, names)) == said


def test_the_indices_are_the_ones_stated(names):
    table, block_index, prefix_index = names["table"], names["block_index"], names["prefix_index"]
    assert block_index(table, 3).as_fraction() == 4
    assert prefix_index(table, 3).as_fraction() == 3 and prefix_index(table, 3).length == 33
    power = table.power_prefix(4)
    assert len(power) == 33 and power == table.block(3) * 3 and table.block(6).startswith(power)
