"""Structural guards on the package source.

The package imports only the standard library, numpy and itself at run
time, matching ``dependencies`` in pyproject.toml; scipy is for tests only.
Rows and table keys become dense cells in ``tabulate`` alone, under its one
cell-space bound, and rows are keyed by sorting in ``data.distinct_first``
alone. A dataset's raw rows are keyed in ``data`` alone, by its one cached
``row_key``, which every other module refines."""

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


def keyed_raw_rows(tree: ast.AST):
    """Lines of ``distinct_first`` calls that read some ``<x>.rows.T``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "distinct_first":
            for arg in ast.walk(node):
                if (isinstance(arg, ast.Attribute) and arg.attr == "T"
                        and isinstance(arg.value, ast.Attribute) and arg.value.attr == "rows"):
                    yield node.lineno


def test_only_data_keys_a_datasets_raw_rows():
    found = {path.name: list(keyed_raw_rows(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(SRC.glob("*.py"))}
    outside = [f"{name}:{line}" for name, lines in found.items() if name != "data.py"
               for line in lines]
    assert not outside, f"raw rows keyed outside data.py, refine row_key instead: {outside}"
    assert found["data.py"], "data.py no longer keys raw rows; update this guard"
