"""The package's public names: every export resolves, so a deleted name fails here first."""

import importlib

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
