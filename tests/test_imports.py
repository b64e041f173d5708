"""Structural guards on the package source.

The package imports only the standard library, numpy and itself at run
time, matching ``dependencies`` in pyproject.toml; scipy is for tests only.
Rows and table keys become dense cells in ``tabulate`` alone, under its one
cell-space bound, and rows are keyed by sorting in ``data.distinct_first``
alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftscope"
RUNTIME = {"numpy", "shiftscope"}


def imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "shiftscope" if node.level else node.module.split(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_shiftscope():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for line, root in imported_roots(ast.parse(path.read_text(encoding="utf-8"))):
            assert root in RUNTIME or root in sys.stdlib_module_names, (
                f"{path.name}:{line} imports {root}")


def referenced_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name


def assert_only_referenced_in(target: str, owner: str) -> None:
    files = sorted(SRC.glob("*.py"))
    assert owner in [path.name for path in files]
    for path in files:
        for line, name in referenced_names(ast.parse(path.read_text(encoding="utf-8"))):
            assert name != target or path.name == owner, (
                f"{path.name}:{line} references {target} outside {owner}")


def test_only_tabulate_ravels_cells():
    assert_only_referenced_in("ravel_multi_index", "tabulate.py")


def test_only_data_keys_rows_by_sorting():
    assert_only_referenced_in("lexsort", "data.py")
