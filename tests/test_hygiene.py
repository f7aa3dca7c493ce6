"""Source hygiene: no module of the package or of `scripts/` imports a name
it never uses, imports inside a function, has a function that takes a
parameter it never reads, or calls `eval` or `exec`; no module of the
package imports a module outside the standard library and the package,
and no module-level function or class goes unreferenced; every package
attribute the benchmark's tracer and workloads name still exists.

A name counts as used if it appears as a bare name anywhere in the module,
including inside a string annotation such as "Polynomial | None".  The
package `__init__.py` is skipped: its imports are the public re-exports.
A module-level function or class counts as referenced if its name appears
as a bare name, an attribute or a string that parses as a name (an entry
of `__all__` or of the tracer's table) outside its own definition: a
private (`_`-prefixed) one in the package, a public one in the package,
`scripts/` or `perfbench/`.  Tests do not count, so a routine that only
tests call belongs in the tests.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tomlinks"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PERFBENCH = ROOT / "perfbench"
SCRIPTS = ROOT / "scripts"


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


def unreferenced(sources: dict[str, str], referrers: dict[str, str],
                 private: bool) -> list[str]:
    """`module: name (line n)` for every module-level function or class of
    `sources`, private or public as `private` says, that nothing in
    `sources` or `referrers` refers to outside its own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = [r for tree in [*trees.values(), *map(ast.parse, referrers.values())]
            for r in references(tree)]
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") or node.name.startswith("_") != private:
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


@pytest.mark.parametrize("path", MODULES + sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: f"scripts/{p.name}" if p.parent == SCRIPTS else p.name)
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
    assert unreferenced(sources, {}, private=True) == [
        "a.py: _unused (line 3)", "a.py: _recursive (line 5)"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources, {}, private=True) == []


def test_public_scanner():
    sources = {
        "a.py": (
            "def used():\n    return 1\n"
            "def unused():\n    return 2\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "class Exported:\n    def method(self):\n        pass\n"
            "def scripted():\n    return 3\n"
            "def traced():\n    return 4\n"
            "def _private():\n    return used()\n"
        ),
        "__init__.py": "from .a import Exported\n__all__ = ['Exported']\n",
    }
    referrers = {
        "scripts/build.py": "from tomlinks.a import scripted\nscripted()\n",
        "perfbench/tracer.py": "LAYERS = [('a', 'traced', 'a.traced')]\n",
    }
    assert unreferenced(sources, referrers, private=False) == [
        "a.py: unused (line 3)", "a.py: recursive (line 5)"]
    assert unreferenced(sources, {}, private=False) == [
        "a.py: unused (line 3)", "a.py: recursive (line 5)", "a.py: scripted (line 10)",
        "a.py: traced (line 12)"]


def test_no_unreferenced_public_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    referrers = {f"{p.parent.name}/{p.name}": p.read_text()
                 for p in sorted(SCRIPTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    assert unreferenced(sources, referrers, private=False) == []


def unused_parameters(source: str) -> list[str]:
    """`qualname(parameter)` for every parameter of a function or lambda
    that its body, nested scopes included, never reads as a bare name.

    `self` and `cls` are exempt, and so is the `*a` of a `__setattr__`,
    which takes any arguments only to refuse the assignment.
    """
    out = []

    def scan(node, qual: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if args.vararg is not None and name != "__setattr__":
                    params.append(args.vararg.arg)
                if args.kwarg is not None:
                    params.append(args.kwarg.arg)
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                out.extend(f"{qual}{name}({p})" for p in params
                           if p not in read and p not in ("self", "cls"))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, f"{qual}{child.name}.")
            else:
                scan(child, qual)

    scan(ast.parse(source), "")
    return out


# parameters a uniform calling convention imposes on a function that needs
# no value from them
UNUSED_ALLOWED = {
    "cli.py: cmd_examples(args)":
        "argparse dispatch calls every command with the parsed arguments",
    "acceptance.py: criterion_7(budget)":
        "run_acceptance hands every criterion the budget; criterion 7 runs no Groebner basis",
}


def test_unused_parameter_scanner():
    source = (
        "def read(a, *rest, key=None, **kw):\n    return a, rest, key, kw\n"
        "def unread(a, b, *rest, key=None, **kw):\n    b = a\n    return a\n"
        "def closure(a, b):\n    def inner(c):\n        return a\n    return inner\n"
        "def default(a):\n    def inner(c=a):\n        return c\n    return inner\n"
        "f = lambda x, y: x\n"
        "class C:\n"
        "    def __setattr__(self, *a):\n        raise AttributeError\n"
        "    def method(self, x):\n        return self\n"
        "    @classmethod\n    def make(cls, x):\n        return x\n"
    )
    assert unused_parameters(source) == [
        "unread(b)", "unread(key)", "unread(rest)", "unread(kw)",
        "closure(b)", "closure.inner(c)", "<lambda>(y)", "C.method(x)"]


def test_no_unused_parameters():
    found = [f"{p.name}: {entry}" for p in sorted(SRC.glob("*.py"))
             for entry in unused_parameters(p.read_text())]
    found += [f"scripts/{p.name}: {entry}" for p in sorted(SCRIPTS.glob("*.py"))
              for entry in unused_parameters(p.read_text())]
    assert [f for f in found if f not in UNUSED_ALLOWED] == []
    assert sorted(set(UNUSED_ALLOWED) - set(found)) == []


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


def dynamic_code_calls(source: str) -> list[str]:
    """Every call of `eval` or `exec`, bare or as an attribute such as
    `builtins.eval`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("eval", "exec"):
                out.append(f"{name} (line {node.lineno})")
    return out


def test_dynamic_code_scanner():
    source = (
        "import builtins\n"
        "x = eval('1')\n"
        "builtins.exec('y = 2')\n"
        "evaluate = 'eval'\n"
        "def f(literal_eval):\n    return literal_eval('3')\n"
    )
    assert dynamic_code_calls(source) == ["eval (line 2)", "exec (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_eval_or_exec(path):
    assert dynamic_code_calls(path.read_text()) == []


def function_imports(source: str) -> list[str]:
    """`function (line n)` for every import statement inside a function or
    method body, named by the innermost function that holds it."""
    out = []

    def scan(node, function: str | None):
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                out.append(f"{function} (line {child.lineno})")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, child.name)
            else:
                scan(child, function)

    scan(ast.parse(source), None)
    return out


def test_function_import_scanner():
    source = (
        "import os\n"
        "from math import gcd\n"
        "def f():\n    from math import lcm\n    return lcm\n"
        "class C:\n    import json\n"
        "    def method(self):\n        if self:\n            import re\n"
        "async def g():\n    def inner():\n        import sys\n"
    )
    assert function_imports(source) == [
        "f (line 4)", "method (line 10)", "inner (line 13)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_sit_at_module_level(path):
    assert function_imports(path.read_text()) == []


def tracer_attributes(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's LAYER_FUNCTIONS."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no LAYER_FUNCTIONS list")


def workload_attributes(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every `module.attribute` the source reads or
    writes on a module it imports from the package."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "tomlinks"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def resolves(module: str, attribute: str) -> bool:
    obj = importlib.import_module(f"tomlinks.{module}")
    for part in attribute.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_attribute_scanners():
    tracer = (
        "LAYER_FUNCTIONS = [\n"
        "    ('algebra', 'exact_divide', 'algebra.exact_divide', None),\n"
        "    ('casefile', 'CaseFile.to_fano_case', 'casefile.parse', lambda r: r),\n"
        "]\n"
    )
    assert tracer_attributes(tracer) == [
        ("algebra", "exact_divide"), ("casefile", "CaseFile.to_fano_case")]
    workloads = (
        "from tomlinks import birational, report as rp\n"
        "import json\n"
        "birational.trace_link = rp.emit(json.dumps(birational.missing))\n"
    )
    assert workload_attributes(workloads) == [
        ("birational", "missing"), ("birational", "trace_link"), ("report", "emit")]
    assert resolves("casefile", "CaseFile.to_fano_case")
    assert not resolves("birational", "coefficient_matrix")


@pytest.mark.parametrize("name, scan", [("tracer.py", tracer_attributes),
                                        ("workloads.py", workload_attributes)])
def test_benchmark_attributes_resolve(name, scan):
    named = scan((PERFBENCH / name).read_text())
    assert named
    assert [f"{m}.{a}" for m, a in named if not resolves(m, a)] == []
