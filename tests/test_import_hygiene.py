"""Every name a ``qcut`` module imports is used in that module, and every
module-level name it assigns, and every private function or class it
defines, is read somewhere in the package."""

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


def names_read() -> tuple:
    """Each module's parsed tree, and every name read anywhere in the package:
    a name counts as read when it is loaded bare or as ``module.name``."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    reads = {"__all__", "__version__"} | {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return trees, reads


def test_every_module_constant_is_read():
    trees, reads = names_read()
    unread = [
        f"{module}:{stmt.lineno}:{target.id}"
        for module, tree in sorted(trees.items())
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id not in reads
    ]
    assert not unread, f"module-level names nothing in qcut reads: {unread}"


def test_every_private_function_and_class_is_read():
    # a private helper that only tests call belongs in the tests
    trees, reads = names_read()
    unread = [
        f"{module}:{stmt.lineno}:{stmt.name}"
        for module, tree in sorted(trees.items())
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and stmt.name not in reads
    ]
    assert not unread, f"private functions and classes nothing in qcut reads: {unread}"
