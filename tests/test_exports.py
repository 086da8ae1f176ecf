"""Every exported name exists.

The benchmark's tracer wraps each name in a module's `__all__` and skips a
name the module lacks, so a stale entry would go unnoticed there.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import forgesim

MODULES = sorted(info.name for info in pkgutil.iter_modules(forgesim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"forgesim.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_exists():
    tree = ast.parse(Path(forgesim.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"forgesim.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"forgesim.{node.module}.{alias.name}"
            assert getattr(forgesim, alias.asname or alias.name) is getattr(module, alias.name)
