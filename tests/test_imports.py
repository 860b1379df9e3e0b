"""Lint: every name imported by a module of the package is used in it,
every module-level private function is referenced somewhere in the package,
the naive homology oracle references none of the engine's kernels and is the
only caller of ``graded.rotate``, no module but ``ainfty`` reads an
algebra's compiled table or image caches, in ``ainfty`` only
``front_insertions`` reads the table, and only ``complexes.variant_class``
calls ``canonical_form``."""

import ast
from pathlib import Path

import pytest

import hochcyc

PACKAGE = Path(hochcyc.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# the oracle's functions in homology.py, and the engine functions it must
# not reach: the oracle is an independent recomputation, not a second
# caller of the engine
ORACLE = ("naive_oracle", "naive_diff_vector", "_quotient_spanning",
          "bareiss", "matrix_rank")
ENGINE = frozenset({"row_reduce", "nullspace", "mat_mul", "boundary_matrix",
                    "apply_images", "canonical_form", "diff_basis",
                    "variant_images", "quotient_basis", "variant_class",
                    "squares_to_zero", "t_word", "rotations"})


def _imported(tree):
    """(bound name, line) of every import, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _used(ast.parse(ann.value, mode="eval"))
    return names


def _private_functions(tree):
    """(name, line) of every module-level function named with one leading
    underscore."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            yield node.name, node.lineno


def _referenced(trees):
    """Names read, or read as attributes, anywhere in ``trees``."""
    names = set()
    for tree in trees:
        names |= _used(tree)
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    if path.name == "__init__.py":
        used |= set(hochcyc.__all__)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def test_lint_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom .graded import Word, rotate\n"
                     "def f(w: 'Word'):\n    return os.sep\n")
    assert [n for n, _ in _imported(tree) if n not in _used(tree)] == \
        ["rotate"]


def test_no_unreferenced_private_functions():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in MODULES}
    used = _referenced(trees.values())
    dead = [f"{name}: {fn} (line {line})" for name, tree in trees.items()
            for fn, line in _private_functions(tree) if fn not in used]
    assert not dead, f"private functions referenced nowhere: {dead}"


def test_lint_sees_an_unreferenced_private_function():
    tree = ast.parse("def _helper():\n    return 1\n"
                     "def _dead():\n    return _helper()\n"
                     "def public():\n    return 2\n"
                     "class K:\n    def _method(self):\n        return 3\n")
    assert [n for n, _ in _private_functions(tree)
            if n not in _referenced([tree])] == ["_dead"]


def _engine_references(tree):
    """(oracle function, engine name) for every engine name that a
    module-level oracle function in ``tree`` reads or reads as an
    attribute."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE:
            for name in sorted(_referenced([node]) & ENGINE):
                yield node.name, name


def test_oracle_references_no_engine_kernel():
    tree = ast.parse((PACKAGE / "homology.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert set(ORACLE) <= defined
    found = list(_engine_references(tree))
    assert not found, f"the oracle references engine kernels: {found}"


def test_lint_sees_the_oracle_reach_into_the_engine():
    tree = ast.parse("def bareiss(rows):\n    return row_reduce(rows)\n"
                     "def naive_oracle(A):\n    return A.canonical_form\n"
                     "def homology(A):\n    return mat_mul(A, A)\n")
    assert list(_engine_references(tree)) == [
        ("bareiss", "row_reduce"), ("naive_oracle", "canonical_form")]


# the attributes of an algebra that hold its compiled table, its image
# caches and their intern table: only the operator core reads them
ALGEBRA_INTERNALS = frozenset({"table", "_tuples", "_image_cache",
                               "_class_cache"})


def _internals_read(tree):
    """The attributes of ``ALGEBRA_INTERNALS`` that ``tree`` reads."""
    return sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)} & ALGEBRA_INTERNALS)


def _readers(tree, attr):
    """The functions of ``tree`` that load the attribute ``attr``."""
    return sorted({fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute) and node.attr == attr
                   and isinstance(node.ctx, ast.Load)})


def test_only_the_operator_core_reads_the_table_and_caches():
    found = {p.name: _internals_read(ast.parse(p.read_text(encoding="utf-8")))
             for p in MODULES if p.name != "ainfty.py"}
    found = {name: attrs for name, attrs in found.items() if attrs}
    assert not found, f"modules reading the algebra's table or caches: {found}"
    core = ast.parse((PACKAGE / "ainfty.py").read_text(encoding="utf-8"))
    assert _internals_read(core) == sorted(ALGEBRA_INTERNALS)
    assert _readers(core, "table") == ["front_insertions"]


def test_lint_sees_a_module_read_the_caches():
    tree = ast.parse("def f(A, t):\n    return A._image_cache['diff'][t]\n"
                     "def g(A, t):\n    return A.table[t], A.den, table\n"
                     "def h(A, v, t):\n"
                     "    return A._class_cache[v][t], A._tuples[t]\n")
    assert _internals_read(tree) == ["_class_cache", "_image_cache",
                                     "_tuples", "table"]


def _callers(tree, name):
    """The functions of ``tree`` that read the name ``name``."""
    return sorted(fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and name in _used(fn))


def test_lint_sees_a_second_table_reader_and_rotate_caller():
    tree = ast.parse("class K:\n    def __init__(self):\n"
                     "        self.table = {}\n"
                     "def f(A, t):\n    return A.table.get(t)\n"
                     "def g(t, d):\n    return rotate(t, d, 1)\n"
                     "def variant_class(A, t, v):\n"
                     "    return partial(canonical_form, variant=v)(A, t)\n"
                     "def project(A, w, v):\n"
                     "    return [canonical_form(A, t, v) for t in w]\n")
    assert _readers(tree, "table") == ["f"]
    assert _callers(tree, "rotate") == ["g"]
    assert _callers(tree, "canonical_form") == ["project", "variant_class"]


def test_only_the_oracle_calls_rotate():
    """The engine reads every rotation sign from ``graded.rotations``; the
    oracle's image of 1 - t alone uses the independent ``graded.rotate``,
    so one sign error cannot reach both."""
    found = [(p.name, fn) for p in MODULES
             for fn in _callers(ast.parse(p.read_text(encoding="utf-8")),
                                "rotate")]
    assert found == [("homology.py", "_quotient_spanning")]


def test_only_variant_class_calls_canonical_form():
    """Every caller reads a tuple's class in a variant through the cached
    ``variant_class``, so ``canonical_form`` runs once per algebra, variant
    and stored tuple."""
    found = [(p.name, fn) for p in MODULES
             for fn in _callers(ast.parse(p.read_text(encoding="utf-8")),
                                "canonical_form")]
    assert found == [("complexes.py", "variant_class")]
