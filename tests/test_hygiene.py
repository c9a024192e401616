"""Dead-code guards over the package source, by the standard `ast` module:
no module imports a name it never uses, and no module defines a private
top-level name it never reads. `__init__.py` only re-exports, so its imports
are exempt, as is `from __future__`."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trustfactor").glob("*.py"))


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _private_top_level(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(_imported_names(tree)) - _loaded_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_top_level_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = sorted(set(_private_top_level(tree)) - _loaded_names(tree))
    assert not dead, f"{path.name} defines {dead} and never reads them"


def test_the_guards_see_dead_code():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy.linalg\n"
                     "from math import log as ln, pi\n_UNUSED = 1\n_USED = 2\n"
                     "def _dead():\n    return pi\nclass _Alive:\n    x = _USED\n"
                     "print(_Alive)\n")
    assert sorted(set(_imported_names(tree)) - _loaded_names(tree)) == ["ln", "numpy", "os"]
    assert sorted(set(_private_top_level(tree)) - _loaded_names(tree)) == ["_UNUSED", "_dead"]
