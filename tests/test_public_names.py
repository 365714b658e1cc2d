import ast
import importlib
from pathlib import Path

import pytest

import crisscross

MODULES = ("mesh", "refelem", "fespace", "assembly", "eigsolve", "audit", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # each module exports only names it defines, not names it imports
    module = importlib.import_module(f"crisscross.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    defined = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert sorted(set(module.__all__) - defined) == []


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


def test_benchmark_traced_names_are_public_callables():
    # the benchmark's tracer wraps public functions only and reads its
    # per-layer figures from the spans named in its ATTRS table; a renamed
    # or privatised function would silently drop those figures to zero
    worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    if not worker.exists():
        pytest.skip("perfbench/ is absent")
    tree = ast.parse(worker.read_text())
    tables = [node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "ATTRS" for t in node.targets)]
    assert len(tables) == 1 and isinstance(tables[0], ast.Dict)
    keys = [ast.literal_eval(key) for key in tables[0].keys]
    assert keys
    for key in keys:
        module, name = key.split(".")
        obj = getattr(importlib.import_module(f"crisscross.{module}"), name, None)
        assert not name.startswith("_") and callable(obj), key
        assert not isinstance(obj, type), key
        assert obj.__module__ == f"crisscross.{module}", key
