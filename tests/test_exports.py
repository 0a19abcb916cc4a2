"""The package's export lists name only what the package defines: every
``__all__`` entry resolves, and each name ``spinwitness/__init__.py``
re-exports is public in the module it comes from."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spinwitness

MODULES = sorted(m.name for m in pkgutil.iter_modules(spinwitness.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"spinwitness.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def reexports():
    tree = ast.parse(Path(spinwitness.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module_name, attr", reexports())
def test_package_reexports_resolve(module_name, attr):
    module = importlib.import_module(f"spinwitness.{module_name}")
    assert attr in module.__all__
    assert getattr(spinwitness, attr) is getattr(module, attr)
