"""The package surface: every name in twkit.__all__ resolves, and a
star import brings in exactly those names."""

import twkit


def test_every_exported_name_resolves():
    assert len(set(twkit.__all__)) == len(twkit.__all__)
    assert [name for name in twkit.__all__ if not hasattr(twkit, name)] == []


def test_star_import():
    namespace = {}
    exec("from twkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(twkit.__all__)
