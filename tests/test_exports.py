"""Export lists: every exported name exists where it is exported from."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import csmine

MODULES = sorted(m.name for m in pkgutil.iter_modules(csmine.__path__))


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _top_level_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_module_is_checked():
    assert {"cli", "contrast", "data", "diversity", "induction", "quality", "reports",
            "synthetic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_defined_in_the_module(name):
    module = importlib.import_module(f"csmine.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert set(exported) <= _top_level_definitions(_tree(module))


def test_package_exports_match_its_imports():
    imported = {
        alias.asname or alias.name
        for node in _tree(csmine).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(set(csmine.__all__)) == len(csmine.__all__)
    assert set(csmine.__all__) == imported | {"__version__"}
    for name in csmine.__all__:
        assert hasattr(csmine, name)
