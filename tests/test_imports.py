"""Every module of the package uses each name it imports, no module matches
a class pattern or subscripts a ``typing`` name at import time, and a module
imported anew leaves no earlier copy of itself alive.

Stdlib ``ast`` only: a name counts as used when the module reads it, in code
or in an annotation, including a quoted one such as ``"Stmt | None"``.
``__init__.py`` imports names to re-export them, so it is left out.

The passes over the tree dispatch on ``type(node) is C``. A class pattern
such as ``case Read(Var(name)):`` tests each class with ``isinstance`` and
reads ``__match_args__``: on CPython 3.11 a ``BinOp`` that reaches the sixth
case costs about ten times the type tests. Value patterns (``case "const":``)
stay.

``typing.Union[...]`` and its kin cache each alias they build in one
process-wide cache, which keeps the classes of the alias alive and, through
their methods, their module: a module imported anew, as the benchmark does
for each set-up, then leaves its earlier copy behind. A PEP 604 union
(``Var | ArrayAccess``) is cached nowhere. Annotations are strings under
``from __future__ import annotations`` and function bodies run later, so only
the subscriptions that run at import time count.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "arraywitness"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from typing import Callable, get_args\n"
        "from .astnodes import Expr, Var\n"
        "def f(x: 'Var | None') -> Callable:\n"
        "    return x\n"
    )
    assert set(_imported(tree)) - _read(tree) == {"get_args", "Expr"}


def _class_patterns(tree: ast.Module) -> list[int]:
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.MatchClass)]


def test_no_class_patterns_in_node_passes():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if lines := _class_patterns(ast.parse(path.read_text(), filename=path.name)):
            found[path.name] = lines
    assert not found, f"class patterns (module: lines): {found}"


def test_a_class_pattern_is_found():
    tree = ast.parse(
        "match e:\n"
        "    case 'const' | 0:\n"
        "        pass\n"
        "    case BinOp(op, Read(Var(name)), _):\n"
        "        pass\n"
    )
    assert _class_patterns(tree) == [4, 4, 4]


def _typing_subscripts(tree: ast.Module) -> list[int]:
    """Lines of the subscriptions of ``typing`` names that run when the
    module is imported."""
    names, modules, lazy = set(), set(), False
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "__future__":
            lazy |= any(alias.name == "annotations" for alias in node.names)
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "typing"}
    strings = {id(a) for a in _annotations(tree)} if lazy else set()
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        if id(node) in strings:
            continue
        if isinstance(node, ast.Subscript) and (
            (isinstance(node.value, ast.Name) and node.value.id in names)
            or (isinstance(node.value, ast.Attribute) and isinstance(node.value.value, ast.Name)
                and node.value.value.id in modules)
        ):
            found.append(node.lineno)
        kids = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # The body runs when called; decorators, defaults and annotations now.
            body = node.body if isinstance(node.body, list) else [node.body]
            kids = [k for k in kids if not any(k is b for b in body)]
        stack += kids
    return sorted(found)


def test_no_typing_subscripts_at_import_time():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if lines := _typing_subscripts(ast.parse(path.read_text(), filename=path.name)):
            found[path.name] = lines
    assert not found, f"typing subscriptions at import time (module: lines): {found}"


def test_a_typing_subscript_at_import_time_is_found():
    source = (
        "from typing import Callable, Optional, Union\n"
        "import typing\n"
        "Expr = Union[int, str]\n"  # 3
        "limit: Optional[int] = None\n"
        "def f(x: Callable[[int], int], y=Optional[int]) -> Optional[int]:\n"  # 5
        "    return Union[x, y]\n"
        "class C:\n"
        "    z: Union[int, str]\n"  # 8
        "    w = typing.Optional[int]\n"  # 9
        "    g = lambda self, d=Union[int, C]: Optional[d]\n"  # 10
    )
    eager = _typing_subscripts(ast.parse(source))
    assert eager == [3, 4, 5, 5, 5, 8, 9, 10]
    lazy = _typing_subscripts(ast.parse("from __future__ import annotations\n" + source))
    assert lazy == [4, 6, 10, 11]


# Re-imports the package ten times, as the benchmark's set-ups do, planting a
# sentinel in every module of each import; prints, for each import, the
# modules whose sentinel outlived a garbage collection.
_REIMPORT = """
import gc, importlib, json, sys, weakref

class Sentinel:
    pass

def ours(name):
    return name == "arraywitness" or name.startswith("arraywitness.")

imports = []
for _ in range(10):
    for name in [n for n in sys.modules if ours(n)]:
        del sys.modules[name]
    importlib.import_module("arraywitness")
    importlib.import_module("arraywitness.cli")
    refs = {}
    for name in [n for n in sys.modules if ours(n)]:
        sys.modules[name]._reimport_sentinel = sentinel = Sentinel()
        refs[name] = weakref.ref(sentinel)
    imports.append(refs)
gc.collect()
print(json.dumps([sorted(n for n, ref in refs.items() if ref() is not None) for refs in imports]))
"""


def test_a_module_imported_anew_frees_its_earlier_copy():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    alive = json.loads(proc.stdout)
    every = sorted(["arraywitness", *(f"arraywitness.{m[:-3]}" for m in MODULES)])
    assert alive == [[]] * 9 + [every]
