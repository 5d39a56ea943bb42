"""Every module under ``src/metacausal`` reads each name it imports.

A deletion that leaves its import behind fails here.  The package
``__init__.py`` files are exempt: they import names to re-export them.
Names listed in ``__all__`` and names inside annotations, quoted ones
included, count as reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "metacausal"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, parsing the quoted parts."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= _annotation_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """Imported names that ``source`` never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read]


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, pi\n"
        "from fractions import Fraction\n"
        "from typing import Callable\n"
        "__all__ = ['inf']\n"
        "def f(x: 'Fraction') -> Callable:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["np", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
