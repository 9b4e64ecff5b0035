"""The benchmark under bench/ reaches into the package by name; every name it uses must exist.

bench/layers.py wraps the public entry points of each module and bench/ops.py
sizes its ops with a few integer helpers. Loading both and installing the
tracer fails here, in the test suite, when one of those names is deleted or
renamed.
"""

import importlib
import importlib.util
import inspect
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
        (["index", "--spec", "k=3; d=; 1", "--n", "2", "--verify"], "oracle.fracpow"),
    ],
    ids=["census-verify", "verify", "index-verify"],
)
def test_tracer_sees_entry_points_the_cli_imports_lazily(argv, span):
    """The CLI imports the oracle and the battery inside its subcommands, so it must call the traced names.

    `index --verify` reads the one-shift measures from `runs`, not from
    `oracle`, where the tracer finds them by name: the wrappers reach it only
    because the tracer rebinds them in every loaded module that holds them.

    The tracer rebinds only names in modules already loaded, so the handler is
    imported first: one imported under the tracer would keep its wrappers after
    uninstall and feed spans to a dead tracer.
    """
    importlib.import_module(f"episturm.commands.{argv[0]}")
    tracer = load("layers").Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert any(name.startswith(span) for name, *_ in tracer.spans)
    leaks = [f"{name}.{attr}" for name, module in list(sys.modules.items()) if name.startswith("episturm.commands")
             for attr in wrapped(module)]
    assert leaks == []
    spans = len(tracer.spans)
    assert cli.main(argv) == 0
    assert len(tracer.spans) == spans


def wrapped(module) -> list[str]:
    """The module's function attributes that are not the function their defining module holds under that name."""
    return [attr for attr, value in vars(module).items()
            if inspect.isfunction(value) and getattr(sys.modules.get(value.__module__), value.__name__, None) is not value]
