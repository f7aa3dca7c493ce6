"""Source hygiene: no module of the package imports a name it never uses
or a module outside the standard library and the package, and no
module-level private function or class goes unreferenced.

A name counts as used if it appears as a bare name anywhere in the module,
including inside a string annotation such as "Polynomial | None".  The
package `__init__.py` is skipped: its imports are the public re-exports.
A private (`_`-prefixed) module-level function or class counts as
referenced if its name appears as a bare name or an attribute anywhere in
the package outside its own definition.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tomlinks"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return out


def quoted_names(text: str) -> set[str]:
    """Bare names in a string that parses as an expression (an annotation)."""
    try:
        quoted = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= quoted_names(node.value)
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


def references(tree: ast.Module) -> list[tuple[int, set[str]]]:
    """(node id, names the node refers to) for every bare name, attribute
    and string annotation in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((id(node), {node.id}))
        elif isinstance(node, ast.Attribute):
            out.append((id(node), {node.attr}))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((id(node), quoted_names(node.value)))
    return out


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = [r for tree in trees.values() for r in references(tree)]
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not any(i not in inside and node.name in names for i, names in refs):
                out.append(f"{name}: {node.name} (line {node.lineno})")
    return out


def test_scanner_sees_unused_and_quoted_uses():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Iterator, Sequence\n"
        "from .algebra import Polynomial\n"
        "def f(p: 'Polynomial') -> Sequence[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterator (line 3)"]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_private_scanner():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _unused():\n    return 2\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Quoted:\n    pass\n"
            "def _remote():\n    return 3\n"
            "def public(x: '_Quoted'):\n    def _inner():\n        pass\n    return _used()\n"
        ),
        "b.py": "from . import a\nvalue = a._remote()\n",
    }
    assert unreferenced_private(sources) == [
        "a.py: _unused (line 3)", "a.py: _recursive (line 5)"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private(sources) == []


def foreign_imports(source: str) -> list[str]:
    """Modules imported from outside the standard library and the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ("__future__", "tomlinks"):
                out.append(f"{name} (line {node.lineno})")
    return out


def test_foreign_import_scanner():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from fractions import Fraction\n"
        "from . import algebra\n"
        "from tomlinks.algebra import Ring\n"
        "def f():\n    import sympy\n    from sympy.abc import x\n"
    )
    assert foreign_imports(source) == [
        "numpy (line 2)", "sympy (line 7)", "sympy.abc (line 8)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_is_stdlib_only(path):
    assert foreign_imports(path.read_text()) == []
