import ast
import importlib
from pathlib import Path

import pytest

import crisscross

MODULES = ("mesh", "refelem", "fespace", "assembly", "eigsolve", "audit", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"crisscross.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    # every name the package __init__ imports, read from its source
    tree = ast.parse(Path(crisscross.__file__).read_text())
    imported = [(node.module, alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"crisscross.{module}")
        assert hasattr(source, name), f"{module}.{name}"
        assert hasattr(crisscross, name), name
    for name in getattr(crisscross, "__all__", ()):
        assert hasattr(crisscross, name), name
