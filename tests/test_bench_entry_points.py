"""The benchmark under bench/ reaches into the package by name; every name it uses must exist.

bench/layers.py wraps the public entry points of each module and bench/ops.py
sizes its ops with a few integer helpers. Loading both and installing the
tracer fails here, in the test suite, when one of those names is deleted or
renamed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from episturm import blocks, cli, powers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("name", ["layers", "ops"])
def test_bench_module_imports(name):
    load(name)


def test_tracer_wraps_and_restores_every_entry_point():
    originals = (powers.census, powers.block_index_witness, blocks.BlockTable.power_prefix)
    tracer = load("layers").Tracer()
    tracer.install()
    try:
        assert powers.census.__wrapped__ is originals[0]
        assert powers.block_index_witness.__wrapped__ is originals[1]
        assert blocks.BlockTable.power_prefix.__wrapped__ is originals[2]
    finally:
        tracer.uninstall()
    assert (powers.census, powers.block_index_witness, blocks.BlockTable.power_prefix) == originals


@pytest.mark.parametrize(
    "argv, span",
    [
        (["census", "--spec", "k=3; d=; 1", "--m", "4", "--verify"], "oracle.certify"),
        (["verify", "--spec", "k=3; d=; 1", "--n", "3"], "checks."),
    ],
    ids=["census-verify", "verify"],
)
def test_tracer_sees_entry_points_the_cli_imports_lazily(argv, span):
    """The CLI imports the oracle and the battery inside its subcommands, so it must call the traced names."""
    tracer = load("layers").Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert any(name.startswith(span) for name, *_ in tracer.spans)
