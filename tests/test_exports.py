"""The package's public names: every export resolves, so a deleted name fails here first."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import episturm


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
