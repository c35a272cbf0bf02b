"""Every module of the package uses each name it imports.

Stdlib ``ast`` only: a name counts as used when the module reads it, in code
or in an annotation, including a quoted one such as ``"Stmt | None"``.
``__init__.py`` imports names to re-export them, so it is left out.
"""

import ast
import pathlib

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
