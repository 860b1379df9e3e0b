"""Lint: every name imported by a module of the package is used in it."""

import ast
from pathlib import Path

import pytest

import hochcyc

PACKAGE = Path(hochcyc.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


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
