"""Pretty printer producing the concrete syntax accepted by the parser.

``parse(print_program(p))`` is structurally identical to ``p`` (including
pre-order location ids), which the test suite checks on every fixture and on
randomly generated trees. Operators are parenthesized by ``PRECEDENCE``, the
table the parser reads. The C emitter renders its harness through the same
statement walk, passing a lowering (see ``print_stmt``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .astnodes import (
    ARRAY_INT,
    PRECEDENCE,
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Block,
    Break,
    ChainAssign,
    Const,
    Continue,
    For,
    If,
    Input,
    Nd,
    NdRange,
    Program,
    Read,
    Ternary,
    TernaryAssign,
    Var,
    _var_op_const,
)


def print_expr(e, parent_prec: int = 0, leaf: Callable[..., str] | None = None) -> str:
    """Concrete syntax of ``e``. The C emitter passes ``leaf`` to render the
    nodes it lowers, ``nd()``, ``nd(lo, hi)`` and ``input()``, and to refuse
    array reads. Under a ternary arm or on the right of ``&&`` and ``||``,
    which C evaluates only under a condition, it calls ``leaf(n, guarded=True)``."""
    t = type(e)
    if t is Read and type(e.lv) is Var:
        return e.lv.name
    if t is Const:
        return str(e.value)
    if t is BinOp:
        prec = PRECEDENCE[e.op]
        right = leaf and partial(leaf, guarded=True) if e.op in ("&&", "||") else leaf
        # Left-associative: the right operand needs one level more.
        text = f"{print_expr(e.lhs, prec, leaf)} {e.op} {print_expr(e.rhs, prec + 1, right)}"
        return f"({text})" if prec < parent_prec else text
    if t is Ternary:
        arm = leaf and partial(leaf, guarded=True)
        # Always parenthesized, so nesting never needs precedence care.
        return (
            f"({print_expr(e.cond, 1, leaf)} ? {print_expr(e.then, 0, arm)} : "
            f"{print_expr(e.orelse, 0, arm)})"
        )
    if leaf is not None:
        return leaf(e)
    if t is Read and type(e.lv) is ArrayAccess:
        return f"{e.lv.array}[{print_expr(e.lv.index)}]"
    if t is Nd:
        return "nd()"
    if t is NdRange:
        return f"nd({print_expr(e.lo)}, {print_expr(e.hi)})"
    if t is Input:
        return "input()"
    raise TypeError(f"not an expression: {e!r}")


def _print_lvalue(lv) -> str:
    t = type(lv)
    if t is Var:
        return lv.name
    if t is ArrayAccess:
        return f"{lv.array}[{print_expr(lv.index)}]"
    raise TypeError(f"not an lvalue: {lv!r}")


def _print_step(iterator: str, step, leaf) -> str:
    op, c = _var_op_const(step, iterator) or (None, None)
    if op == "+":
        return f"{iterator}++" if c == 1 else f"{iterator} += {c}"
    return f"{iterator} = {print_expr(step, 0, leaf)}"


def print_stmt(s, indent: int, out: list[str], lower=None) -> None:
    """Append the lines of statement ``s`` to ``out``.

    ``lower`` is the C emitter's lowering; ``print_program`` passes none.
    With it, the nodes ``print_expr`` leaves to the emitter render through
    ``lower.leaf(e, pad, out, guarded)``, which may append lines of its own at
    the statement's indentation: each line's text is complete before it is
    appended, so those lines come first. A guarded assignment prints as a
    C ``if``/``else``, whose two sides are guarded.
    """
    pad = "  " * indent
    leaf = None if lower is None else partial(lower.leaf, pad=pad, out=out)

    def ex(e) -> str:
        return print_expr(e, 0, leaf)

    t = type(s)
    if t is Assign:
        out.append(f"{pad}{_print_lvalue(s.target)} = {ex(s.value)};")
    elif t is Block:
        out.append(pad + "{")
        for sub in s.stmts:
            print_stmt(sub, indent + 1, out, lower)
        out.append(pad + "}")
    elif t is If:
        out.append(f"{pad}if ({ex(s.cond)})")
        _print_body(s.then, indent, out, lower)
        if s.orelse is not None:
            out.append(pad + "else")
            _print_body(s.orelse, indent, out, lower)
    elif t is TernaryAssign and type(s.target) is Var and lower is None:
        out.append(f"{pad}({ex(s.cond)}) ? {s.target.name} = {ex(s.value)} : {ex(s.discard)};")
    elif t is TernaryAssign and type(s.target) is Var:
        guarded = partial(leaf, guarded=True)
        out.append(
            f"{pad}if ({ex(s.cond)}) {{ {s.target.name} = {print_expr(s.value, 0, guarded)}; }} "
            f"else {{ (void)({print_expr(s.discard, 0, guarded)}); }}"
        )
    elif t is Assert:
        out.append(f"{pad}assert({ex(s.cond)});")
    elif t is ChainAssign:
        out.append(f"{pad}{' = '.join(s.targets)} = {ex(s.value)};")
    elif t is For:
        out.append(
            f"{pad}for ({s.iterator} = {ex(s.init)}; "
            f"{ex(s.test)}; {_print_step(s.iterator, s.step, leaf)})"
        )
        _print_body(s.body, indent, out, lower)
    elif t is Break:
        out.append(pad + "break;")
    elif t is Continue:
        out.append(pad + "continue;")
    else:
        raise TypeError(f"not a statement: {s!r}")


def _print_body(s, indent: int, out: list[str], lower) -> None:
    # Bodies keep their own Block/non-Block shape so round trips are exact.
    if type(s) is Block:
        print_stmt(s, indent, out, lower)
        return
    start = len(out)
    print_stmt(s, indent + 1, out, lower)
    # A bare body whose own expressions the lowering drew into declarations,
    # the only lines that begin with ``int``, is braced after its header, or
    # C would take the first declaration for the whole body.
    if lower is not None and out[start].lstrip().startswith("int "):
        out[start - 1] += " {"
        out.append("  " * indent + "}")


def print_program(p: Program) -> str:
    out: list[str] = []
    for d in p.decls:
        if d.kind == ARRAY_INT:
            out.append(f"int {d.name}[{d.size}];")
        else:
            out.append(f"int {d.name};")
    if p.decls:
        out.append("")
    out.append("main()")
    print_stmt(p.body, 0, out)
    return "\n".join(out) + "\n"
