"""Pretty printer producing the concrete syntax accepted by the parser.

``parse(print_program(p))`` is structurally identical to ``p`` (including
pre-order location ids), which the test suite checks on every fixture and on
randomly generated trees.
"""

from __future__ import annotations

from typing import Callable

from .astnodes import (
    ARRAY_INT,
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
    IfElse,
    Input,
    Nd,
    NdRange,
    Program,
    Read,
    Ternary,
    TernaryAssign,
    Var,
)

# Higher binds tighter. Matches the parser's precedence ladder.
_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def print_expr(e, parent_prec: int = 0, leaf: Callable[[object], str] | None = None) -> str:
    """Concrete syntax of ``e``. The C emitter passes ``leaf`` to render the
    nodes it lowers: ``nd()``, ``nd(lo, hi)``, ``input()`` and array reads."""
    match e:
        case Const(value):
            return str(value)
        case Read(Var(name)):
            return name
        case BinOp(op, lhs, rhs):
            prec = _PREC[op]
            # Left-associative: the right operand needs one level more.
            text = f"{print_expr(lhs, prec, leaf)} {op} {print_expr(rhs, prec + 1, leaf)}"
            return f"({text})" if prec < parent_prec else text
        case Ternary(cond, then, orelse):
            # Always parenthesized, so nesting never needs precedence care.
            return (
                f"({print_expr(cond, 1, leaf)} ? {print_expr(then, 0, leaf)} : "
                f"{print_expr(orelse, 0, leaf)})"
            )
        case _ if leaf is not None:
            return leaf(e)
        case Read(ArrayAccess(array, index)):
            return f"{array}[{print_expr(index)}]"
        case Nd():
            return "nd()"
        case NdRange(lo, hi):
            return f"nd({print_expr(lo)}, {print_expr(hi)})"
        case Input():
            return "input()"
    raise TypeError(f"not an expression: {e!r}")


def _print_lvalue(lv) -> str:
    match lv:
        case Var(name):
            return name
        case ArrayAccess(array, index):
            return f"{array}[{print_expr(index)}]"
    raise TypeError(f"not an lvalue: {lv!r}")


def _print_step(iterator: str, step) -> str:
    match step:
        case BinOp("+", Read(Var(name)), Const(1)) if name == iterator:
            return f"{iterator}++"
        case BinOp("+", Read(Var(name)), Const(c)) if name == iterator:
            return f"{iterator} += {c}"
        case _:
            return f"{iterator} = {print_expr(step)}"


def _print_stmt(s, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    match s:
        case Block(stmts):
            out.append(pad + "{")
            for sub in stmts:
                _print_stmt(sub, indent + 1, out)
            out.append(pad + "}")
        case Assign(target, value):
            out.append(f"{pad}{_print_lvalue(target)} = {print_expr(value)};")
        case ChainAssign(targets, value):
            chain = " = ".join(targets)
            out.append(f"{pad}{chain} = {print_expr(value)};")
        case TernaryAssign(cond, Var(name), value, discard):
            out.append(
                f"{pad}({print_expr(cond)}) ? {name} = "
                f"{print_expr(value)} : {print_expr(discard)};"
            )
        case Assert(cond):
            out.append(f"{pad}assert({print_expr(cond)});")
        case If(cond, then):
            out.append(f"{pad}if ({print_expr(cond)})")
            _print_body(then, indent, out)
        case IfElse(cond, then, orelse):
            out.append(f"{pad}if ({print_expr(cond)})")
            _print_body(then, indent, out)
            out.append(pad + "else")
            _print_body(orelse, indent, out)
        case For(iterator, init, test, step, body):
            out.append(
                f"{pad}for ({iterator} = {print_expr(init)}; "
                f"{print_expr(test)}; {_print_step(iterator, step)})"
            )
            _print_body(body, indent, out)
        case Break():
            out.append(pad + "break;")
        case Continue():
            out.append(pad + "continue;")
        case _:
            raise TypeError(f"not a statement: {s!r}")


def _print_body(s, indent: int, out: list[str]) -> None:
    # Bodies keep their own Block/non-Block shape so round trips are exact.
    if isinstance(s, Block):
        _print_stmt(s, indent, out)
    else:
        _print_stmt(s, indent + 1, out)


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
    _print_stmt(p.body, 0, out)
    return "\n".join(out) + "\n"
