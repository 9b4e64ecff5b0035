"""The package's public names: every export resolves, so a deleted name fails here first, and each has a reader."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import episturm
from test_bench_entry_points import load


def test_every_exported_name_resolves():
    missing = [name for name in episturm.__all__ if not hasattr(episturm, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from episturm import *", namespace)
    assert set(episturm.__all__) <= namespace.keys()


def test_each_name_is_its_home_module_object():
    """The package hands out the home module's object, not a copy."""
    for name in episturm.__all__:
        home = importlib.import_module(f"episturm.{episturm._HOME[name]}")
        assert getattr(episturm, name) is getattr(home, name), name


def test_dir_lists_every_exported_name():
    assert set(episturm.__all__) <= set(dir(episturm))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        episturm.no_such_name


def test_the_one_shift_measures_load_no_scan():
    """They live in `runs`, so reading them compiles neither the all-shift scan nor the blocks."""
    probe = ("import json, sys, episturm; episturm.max_fractional_power, episturm.greatest_power_prefix; "
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('episturm.'))))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(episturm.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["episturm.errors", "episturm.runs", "episturm.words"]


def _read_in_src() -> set[str]:
    """Every name that code under src/ reads, as a bare name or an attribute, outside the definition of that name."""
    read: set[str] = set()

    def visit(node, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside |= {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in Path(episturm.__file__).parent.rglob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return read


def test_every_exported_name_has_a_reader():
    """An export that no src/ code reads must be named in the README, which says why it stays, or wrapped by the benchmark."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    traced = {attr for _, attrs in load("layers")._ENTRY_POINTS.values() for attr in attrs}
    read = _read_in_src()
    unread = [name for name in episturm.__all__
              if name not in read and name not in traced and not re.search(rf"\b{name}\b", readme)]
    assert unread == []
