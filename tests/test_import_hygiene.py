"""Every name a ``qcut`` module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import qcut

SRC = Path(qcut.__file__).parent


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each top-level or nested import -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_package_reexports_every_import():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(imported_names(tree)) == sorted(qcut.__all__)
    for name in qcut.__all__:
        assert hasattr(qcut, name), name
