"""Guards over the package source, by the standard `ast` module: no module
imports a name it never uses, and no module defines a private top-level name
it never reads. `__init__.py` only re-exports, so its imports are exempt, as
is `from __future__`; each name it re-exports is defined, by def, class or
assignment, in the module it names, not imported there from a third. No
module imports another's private name, apart from the objective kernel that
`optimize` drives, and none calls the builtin
`sum`, whose float rounding changed in Python 3.12 (`metrics.left_sum` keeps
the left-to-right order every output was written with). Nor does any module
name `np.append`, which copies a whole array to add one element, or
`np.lexsort`, several times slower than a packed sort (`keys.stable_order`).
No module imports `threading` or `concurrent.futures`: numpy passes the GIL
back and forth in small blocks, so threads never made the sweeps faster.
Every public top-level name of the package-internal `keys` module is
imported by another module, so a helper goes with its last caller. Only
`optimize`, which defines `fit_gd` and `fit_sgd`, and `experiments`, whose
`fit_and_score` is the one path every command fits through, read either name.
Every field of a dataclass in the package, InitVars apart, is read as an
attribute somewhere in the package, its tests or the benchmark, so no state
is kept that no caller reads.

`python tests/test_hygiene.py` prints each module's total, code, docstring,
comment and blank lines (`line_kinds`), the counts the line budget is kept in."""

import ast
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "trustfactor").glob("*.py"))
READERS = [*SOURCES, *(path for folder in ("tests", "perfbench")
                       for path in sorted((ROOT / folder).glob("*.py")))]


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


# (importing module, imported name) pairs allowed across modules
PRIVATE_IMPORTS = {("optimize", "_objective_pass")}


def _private_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "trustfactor"
                                                 or node.module.startswith("trustfactor.")):
            yield from (alias.name for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__"))


def _builtin_sums(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)]


SLOW_NUMPY = {"append", "lexsort"}


def _slow_numpy(tree):
    """Names of SLOW_NUMPY read as np.<name> or numpy.<name>, or imported from numpy."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in SLOW_NUMPY
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            yield from (alias.name for alias in node.names if alias.name in SLOW_NUMPY)


THREAD_MODULES = {"threading", "concurrent"}


def _thread_imports(tree):
    """Modules of THREAD_MODULES (or their submodules) that the tree imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] in THREAD_MODULES)


def _top_level(tree):
    """Names a module defines at its top level, by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _private_top_level(tree):
    return (name for name in _top_level(tree)
            if name.startswith("_") and not name.startswith("__"))


def line_kinds(text):
    """(total, code, docstring, comment, blank) line counts of a module's
    source. Docstring lines are those of the first-statement string of the
    module, a class or a function (`ast`); code lines hold any other token,
    lines inside a multi-line string too; comment lines hold only a comment
    (`tokenize`); blank lines hold only whitespace."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code, comments = set(), set()
    layout = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in layout:
            code.update(range(token.start[0], token.end[0] + 1))
    lines = text.splitlines()
    blank = {row for row, line in enumerate(lines, 1) if not line.strip()}
    code -= docs
    return len(lines), len(code), len(docs), len(comments - docs - code), len(blank - docs - code)


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    crossing = sorted(set(_private_imports(tree)) - {name for module, name in PRIVATE_IMPORTS
                                                     if module == path.stem})
    assert not crossing, f"{path.name} imports the private names {crossing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_builtin_sum(path):
    lines = _builtin_sums(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} calls the builtin sum at lines {lines}; use metrics.left_sum"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_slow_numpy_call(path):
    names = sorted(set(_slow_numpy(ast.parse(path.read_text(encoding="utf-8")))))
    assert not names, f"{path.name} uses np.{names}; see the module docstring"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_thread_import(path):
    names = sorted(set(_thread_imports(ast.parse(path.read_text(encoding="utf-8")))))
    assert not names, f"{path.name} imports {names}; see the module docstring"


OPTIMIZERS = {"fit_gd", "fit_sgd"}
FIT_PATH = {"optimize", "experiments"}  # the modules that may read OPTIMIZERS


def _optimizer_reads(tree):
    """Lines that read a name of OPTIMIZERS, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in OPTIMIZERS
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr in OPTIMIZERS]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem not in FIT_PATH],
                         ids=lambda p: p.name)
def test_only_the_fit_path_reads_the_optimizers(path):
    lines = _optimizer_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, (f"{path.name} reads fit_gd or fit_sgd at lines {lines}; "
                       "fit through experiments.fit_and_score")


def _public_top_level(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name


def _dataclass_fields(tree):
    """(class, field) of each field of a @dataclass class, InitVars apart."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "dataclass" in {
                ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}:
            yield from ((node.name, stmt.target.id) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and not ast.unparse(stmt.annotation).startswith("InitVar"))


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    read = set().union(*(_attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
                         for path in READERS))
    unread = sorted(f"{path.stem}.{cls}.{name}" for path in SOURCES for cls, name
                    in _dataclass_fields(ast.parse(path.read_text(encoding="utf-8")))
                    if name not in read)
    assert not unread, f"no module, test or benchmark reads the dataclass fields {unread}"


def test_every_keys_helper_is_imported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    imported = {alias.name for stem, tree in trees.items() if stem != "keys"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "keys" and node.level == 1 for alias in node.names}
    unused = sorted(set(_public_top_level(trees["keys"])) - imported)
    assert not unused, f"keys defines {unused} and no other module imports them"


def test_reexports_come_from_the_defining_module():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    borrowed = sorted(f"{node.module}.{alias.name}" for node in trees["__init__"].body
                      if isinstance(node, ast.ImportFrom) and node.level == 1
                      for alias in node.names
                      if alias.name not in set(_top_level(trees[node.module])))
    assert not borrowed, f"__init__.py re-exports {borrowed}, which their modules only import"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_line_kinds_add_up(path):
    total, *kinds = line_kinds(path.read_text(encoding="utf-8"))
    assert sum(kinds) == total == len(path.read_bytes().splitlines())


def test_line_kinds_by_hand():
    text = ('"""Module\n\ndocstring."""\n\n# a comment\nx = """not\n\na docstring"""  # trailing\n'
            'class A:\n    """One line."""\n\n    def f(self):\n        \'\'\'Two\n        lines\'\'\'\n'
            '        return (1,\n\n                2)\n')
    assert line_kinds(text) == (17, 7, 6, 1, 3)


def test_the_guards_see_dead_code():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy.linalg\n"
                     "from math import log as ln, pi\n_UNUSED = 1\n_USED = 2\n"
                     "def _dead():\n    return pi\nclass _Alive:\n    x = _USED\n"
                     "print(_Alive)\n")
    assert sorted(set(_imported_names(tree)) - _loaded_names(tree)) == ["ln", "numpy", "os"]
    assert sorted(set(_private_top_level(tree)) - _loaded_names(tree)) == ["_UNUSED", "_dead"]
    assert sorted(_top_level(tree)) == ["_Alive", "_UNUSED", "_USED", "_dead"]
    tree = ast.parse("from .data import _ranges, __version__, public\n"
                     "from trustfactor.keys import _find\nfrom numpy import _private\n"
                     "total = sum(x) + np.sum(x) + y.sum()\n")
    assert sorted(_private_imports(tree)) == ["_find", "_ranges"]
    assert _builtin_sums(tree) == [4]
    tree = ast.parse("import numpy as np\nfrom numpy import lexsort\nx = np.append(a, 1)\n"
                     "y = numpy.lexsort(k)\nrows.append(1)\nz = np.diff(a, append=0)\n")
    assert sorted(_slow_numpy(tree)) == ["append", "lexsort", "lexsort"]
    tree = ast.parse("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
                     "import concurrent.futures as cf\nfrom .threading import x\nimport queue\n")
    assert sorted(_thread_imports(tree)) == ["concurrent.futures", "concurrent.futures",
                                             "threading"]
    tree = ast.parse("from .optimize import fit_gd\nfits = {'gd': fit_gd}\n"
                     "model = optimize.fit_sgd(r)\nfit_gd_label = 'fit_sgd'\n"
                     "def fit_gd(fit_sgd=None):\n    pass\n")
    assert _optimizer_reads(tree) == [2, 3]
    tree = ast.parse("@dataclass(eq=False)\nclass A:\n    kept: int\n    stored: int\n"
                     "    flag: InitVar[bool] = False\n    LIMIT = 3\n"
                     "@dataclass\nclass B:\n    x: int\nclass C:\n    y: int\n"
                     "a.kept + B(1).x\na.stored = 2\n")
    assert list(_dataclass_fields(tree)) == [("A", "kept"), ("A", "stored"), ("B", "x")]
    assert _attribute_reads(tree) == {"kept", "x"}


if __name__ == "__main__":
    print(f"{'module':<16}{'total':>7}{'code':>7}{'docstring':>11}{'comment':>9}{'blank':>7}")
    counts = [(path.name, line_kinds(path.read_text(encoding="utf-8"))) for path in SOURCES]
    for name, row in [*counts, ("all", [sum(col) for col in zip(*(row for _, row in counts))])]:
        print(f"{name:<16}{row[0]:>7}{row[1]:>7}{row[2]:>11}{row[3]:>9}{row[4]:>7}")
