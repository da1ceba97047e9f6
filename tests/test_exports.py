"""The package surface: every name in twkit.__all__ resolves, a star
import brings in exactly those names, every one of them is used by
twkit itself, and every module imports first without a cycle."""

import ast
import pathlib
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


# exported names no twkit module uses: couple_pages, which
# perfbench/tracing.py wraps by name (ROADMAP item 8), and
# gaussian_eliminate, the cancellation step criterion 9 checks
UNUSED_EXPORTS = {"couple_pages", "gaussian_eliminate"}


def test_every_export_is_used_inside_twkit():
    """A name that only tests call belongs in tests/, not in src/."""
    used = set()
    for path in pathlib.Path(twkit.__path__[0]).glob("*.py"):
        if path.name != "__init__.py":
            # the names of ast.Name and ast.Attribute nodes
            used.update(getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(ast.parse(path.read_text())))
    unused = set(twkit.__all__) - used - {"__version__"}
    extra = sorted(unused - UNUSED_EXPORTS)
    assert not extra, "exported but unused inside twkit: " + ", ".join(extra)
    assert UNUSED_EXPORTS <= unused, "an exception is no longer exported or now used"


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
