"""Help and usage-error bytes replayed from a golden recorded before the CLI read its own option table.

tests/golden/cli_usage.json holds, at an 80-column terminal, `--help` of the
top-level parser and of each subcommand, the usage errors argparse reports,
and the inputs argparse accepts only through its own grammar (`--n=3`,
abbreviations such as `--verif` and `--all`, a negative value): the argv, the
exit code, stdout and stderr of `episturm.cli.main`.
"""

import json
from pathlib import Path

import pytest

import episturm.cli as cli

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli_usage.json"
TRIB = "k=3; d=; 1"
ARGVS = [
    ["--help"],
    *([command, "--help"] for command in ("generate", "blocks", "singular", "partition", "index", "census", "verify")),
    [],
    ["frobnicate", "--spec", TRIB],
    ["census", "--m", "3"],
    ["blocks", "--spec", TRIB, "--n", "x"],
    ["blocks", "--spec", TRIB, "--n=3"],
    ["index", "--spec", TRIB, "--n", "3", "--verif"],
    ["generate", "--spec", TRIB, "--length", "-5"],
    ["census", "--spec", TRIB, "--all", "5"],
]


def replay(argv, capsys) -> dict:
    """One run of main: its exit code (SystemExit's for argparse's help and errors), stdout and stderr."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_argv():
    assert [case["argv"] for case in GOLDEN] == ARGVS


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) or "no-arguments" for c in GOLDEN])
def test_usage_bytes_match_the_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("EPISTURM_GUARD", raising=False)
    assert replay(case["argv"], capsys) == case
