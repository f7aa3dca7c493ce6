"""Source hygiene: no module of the package or of `scripts/` imports a name
it never uses, imports inside a function, has a function that takes a
parameter it never reads, calls `eval` or `exec`, or holds an `assert`
statement, which `python -O` strips; no module of the package imports a
module outside the standard library and the package, no module of the
package but `algebra` (which seeds the general members) imports `random`,
and no module-level function or class of the package or of `scripts/`
goes unreferenced; every package attribute the benchmark's tracer and
workloads name still exists; every `from .m import name` of the package
and `from tomlinks.m import name` of `scripts/` takes name from the
module m that defines it, not from one that imports it in turn.

A name counts as used if it appears as a bare name anywhere in the module,
including inside a string annotation such as "Polynomial | None".  The
package `__init__.py` is skipped: its imports are the public re-exports.
A module-level function or class counts as referenced if its name appears
as a bare name, an attribute or a string that parses as a name (an entry
of `__all__` or of the tracer's table) outside its own definition: a
private (`_`-prefixed) one in the package, a public one in the package,
`scripts/` or `perfbench/`; one of `scripts/` in `scripts/`.  Tests do not
count, so a routine that only tests call belongs in the tests.  Every
method of a private class of the package, dunders aside, is referenced as
an attribute somewhere in the package outside its own definition.
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


def unreferenced_private_methods(sources: dict[str, str]) -> list[str]:
    """`module: Class.method (line n)` for every method, dunders aside, of a
    module-level `_`-prefixed class of `sources` whose name no attribute in
    `sources` carries outside the method's own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    attributes = [(id(node), node.attr) for tree in trees.values()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    out = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or node.name.startswith("__") and node.name.endswith("__"):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                if not any(i not in inside and attr == node.name for i, attr in attributes):
                    out.append(f"{name}: {cls.name}.{node.name} (line {node.lineno})")
    return out


def test_private_method_scanner():
    sources = {
        "a.py": (
            "class _Run:\n"
            "    def __init__(self):\n        self.step()\n"
            "    def step(self):\n        return 1\n"
            "    def unused(self):\n        return 2\n"
            "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n"
            "    def remote(self):\n        return 3\n"
            "class Public:\n    def unused(self):\n        pass\n"
            "def _helper():\n    def unused():\n        pass\n"
        ),
        "b.py": "from . import a\nvalue = a._Run().remote()\n",
    }
    assert unreferenced_private_methods(sources) == [
        "a.py: _Run.unused (line 6)", "a.py: _Run.recursive (line 8)"]


def test_no_unreferenced_private_methods():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_methods(sources) == []


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


def test_no_unreferenced_script_definitions():
    sources = {f"scripts/{p.name}": p.read_text() for p in sorted(SCRIPTS.glob("*.py"))}
    assert unreferenced(sources, {}, private=False) + unreferenced(sources, {}, private=True) == []


def module_definitions(source: str) -> set[str]:
    """Names a module binds at its top level other than by an import."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return out


def indirect_imports(source: str, package: dict[str, set[str]]) -> list[str]:
    """`name from m (line n)` for every `from .m import name` or `from
    tomlinks.m import name` where m is a module of `package` (module ->
    the names it defines) that does not define name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("tomlinks."):
            module = node.module.removeprefix("tomlinks.")
        else:
            continue
        if module in package:
            out += [f"{alias.name} from {module} (line {node.lineno})"
                    for alias in node.names if alias.name not in package[module]]
    return out


def test_indirect_import_scanner():
    package = {
        "algebra": module_definitions(
            "from math import gcd\nX: int = 1\nY = Z = 2\n"
            "def f():\n    W = 3\nclass C:\n    V = 4\n"),
        "groebner": module_definitions("from .algebra import C, f\ndef g():\n    pass\n"),
    }
    assert package == {"algebra": {"X", "Y", "Z", "f", "C"}, "groebner": {"g"}}
    source = (
        "from . import __version__\n"
        "from .algebra import C, gcd\n"
        "from .groebner import f, g\n"
        "from tomlinks.groebner import C as D\n"
        "from tomlinks import algebra\n"
        "from fractions import Fraction\n"
    )
    assert indirect_imports(source, package) == [
        "gcd from algebra (line 2)", "f from groebner (line 3)", "C from groebner (line 4)"]


def test_imports_name_the_defining_module():
    package = {p.stem: module_definitions(p.read_text()) for p in MODULES}
    found = [f"{p.parent.name}/{p.name}: {entry}" for p in MODULES + sorted(SCRIPTS.glob("*.py"))
             for entry in indirect_imports(p.read_text(), package)]
    assert found == []


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


def absolute_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) of every absolute import, at any depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.module, node.lineno))
    return out


def foreign_imports(source: str) -> list[str]:
    """Modules imported from outside the standard library and the package."""
    return [f"{name} (line {line})" for name, line in absolute_imports(source)
            if name.split(".")[0] not in sys.stdlib_module_names
            and name.split(".")[0] not in ("__future__", "tomlinks")]


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


def random_imports(source: str) -> list[str]:
    """`line n` for every import of the standard `random` module, at any depth."""
    return [f"line {line}" for name, line in absolute_imports(source)
            if name.split(".")[0] == "random"]


def test_random_import_scanner():
    source = (
        "import random\n"
        "from random import Random\n"
        "import os, random as rnd\n"
        "from . import random_general\n"
        "from .algebra import random_general\n"
        "random_seed = 'import random'\n"
        "def f():\n    import random\n"
    )
    assert random_imports(source) == ["line 1", "line 2", "line 3", "line 8"]


def test_only_the_seeded_members_draw_at_random():
    # `algebra.random_general` draws the coefficients of a general member,
    # seeded by `mix_seed`; every other check is exact, not sampled
    assert [p.name for p in MODULES if random_imports(p.read_text())] == ["algebra.py"]


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


def assert_statements(source: str) -> list[str]:
    """`line n` for every `assert` statement, at any depth."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_scanner():
    source = (
        "assert True\n"
        "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
        "class C:\n    def m(self):\n        self.assert_ok = 'assert'\n"
        "        raise AssertionError('kept under -O')\n"
    )
    assert assert_statements(source) == ["line 1", "line 4"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


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
