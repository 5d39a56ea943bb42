"""Every module under ``src/metacausal`` reads each name it imports, and
every public name it lists is there.

A deletion that leaves its import behind fails here.  The package
``__init__.py`` files are exempt: they import names to re-export them.
Names listed in ``__all__`` and names inside annotations, quoted ones
included, count as reads.  A deletion that leaves the name in ``__all__``,
or in a package's re-exports, fails too: each ``__all__`` entry is bound at
the top of its module, and the packages re-export only names that their
source module lists in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "metacausal"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
PACKAGES = sorted(PACKAGE.rglob("__init__.py"))


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


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def listed_names(tree: ast.Module) -> list[str]:
    """The entries of a module's ``__all__`` ([] when it has none)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts]
    return []


def bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def unlisted_reexports(package: Path) -> list[str]:
    """``module.name`` for each name a package's ``__init__.py`` imports from
    one of its modules that the module's ``__all__`` does not list."""
    found = []
    for node in _tree(package).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = listed_names(_tree(package.parent / f"{node.module}.py"))
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    return found


def test_checker_finds_an_unbound_listed_name():
    tree = ast.parse(
        "import numpy as np\n"
        "from math import inf\n"
        "A, (B, C) = 1, (2, 3)\n"
        "D: int = 4\n"
        "def f(): pass\n"
        "class G: pass\n"
        "__all__ = ['np', 'inf', 'A', 'C', 'D', 'f', 'G', 'gone']\n"
    )
    assert [name for name in listed_names(tree) if name not in bound_names(tree)] == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_binds_every_listed_name(path):
    tree = _tree(path)
    assert [name for name in listed_names(tree) if name not in bound_names(tree)] == []


def test_checker_finds_an_unlisted_reexport(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import kept, dropped\n")
    (tmp_path / "mod.py").write_text("kept = dropped = 1\n__all__ = ['kept']\n")
    assert unlisted_reexports(tmp_path / "__init__.py") == ["mod.dropped"]


@pytest.mark.parametrize("path", PACKAGES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_package_reexports_only_listed_names(path):
    assert unlisted_reexports(path) == []
