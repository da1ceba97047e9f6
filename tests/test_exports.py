"""The package surface: every name in twkit.__all__ resolves, a star
import brings in exactly those names, and every module imports first
without a cycle."""

import pkgutil
import subprocess
import sys

import pytest

import twkit


def test_every_exported_name_resolves():
    assert len(set(twkit.__all__)) == len(twkit.__all__)
    assert [name for name in twkit.__all__ if not hasattr(twkit, name)] == []


def test_star_import():
    namespace = {}
    exec("from twkit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(twkit.__all__)


# twkit/__init__.py fixes one import order; a bare package object in
# its place lets the module under test be the first one imported
IMPORT_FIRST = """
import importlib, sys, types
package = types.ModuleType("twkit")
package.__path__ = [sys.argv[1]]
sys.modules["twkit"] = package
importlib.import_module("twkit." + sys.argv[2])
"""


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(twkit.__path__)))
def test_module_imports_first_without_a_cycle(name):
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_FIRST, twkit.__path__[0], name],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
