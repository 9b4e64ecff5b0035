"""The package's public names: every export resolves, so a deleted name fails here first."""

import episturm


def test_every_exported_name_resolves():
    missing = [name for name in episturm.__all__ if not hasattr(episturm, name)]
    assert missing == []

