"""Recorded CLI runs replayed byte for byte, and the schema's row kinds against them.

tests/golden/readme_cli.json holds, for the README examples plus a witness
listing, census ranges under --full and --verify, an index range under
--verify, a usage error and a guard trip, each in text and in --json form:
the argv, the exit code and the exact stdout of `episturm.cli.main`.
"""

import json
from pathlib import Path

import pytest

import episturm.cli as cli

GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())
SCHEMA = json.loads((Path(cli.__file__).parent / "report.schema.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{c['argv'][0]}-{i}" for i, c in enumerate(GOLDEN)])
def test_replay_is_byte_identical(case, capsys, monkeypatch):
    monkeypatch.delenv("EPISTURM_GUARD", raising=False)
    code = cli.main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


def test_schema_kinds_are_the_emitted_kinds():
    declared = {branch["properties"]["kind"]["const"] for branch in SCHEMA["oneOf"]}
    emitted = {
        json.loads(line)["kind"]
        for case in GOLDEN
        if "--json" in case["argv"]
        for line in case["stdout"].splitlines()
    }
    assert declared == emitted
