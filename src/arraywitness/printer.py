"""Pretty printer producing the concrete syntax accepted by the parser.

``parse(print_program(p))`` is structurally identical to ``p`` (including
pre-order location ids), which the test suite checks on every fixture and on
randomly generated trees. Operators are parenthesized by ``PRECEDENCE``, the
table the parser reads. The C emitter renders its harness through the same
statement walk, passing a lowering (see ``print_stmt``).
"""

from __future__ import annotations

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
)


def print_expr(e, parent_prec: int = 0, leaf: Callable[[object], str] | None = None) -> str:
    """Concrete syntax of ``e``. The C emitter passes ``leaf`` to render the
    nodes it lowers, ``nd()``, ``nd(lo, hi)`` and ``input()``, and to refuse
    array reads."""
    match e:
        case Const(value):
            return str(value)
        case Read(Var(name)):
            return name
        case BinOp(op, lhs, rhs):
            prec = PRECEDENCE[op]
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


def _print_step(iterator: str, step, leaf) -> str:
    match step:
        case BinOp("+", Read(Var(name)), Const(1)) if name == iterator:
            return f"{iterator}++"
        case BinOp("+", Read(Var(name)), Const(c)) if name == iterator:
            return f"{iterator} += {c}"
        case _:
            return f"{iterator} = {print_expr(step, 0, leaf)}"


def print_stmt(s, indent: int, out: list[str], lower=None) -> None:
    """Append the lines of statement ``s`` to ``out``.

    ``lower`` is the C emitter's lowering; ``print_program`` passes none.
    With it, the nodes ``print_expr`` leaves to the emitter render through
    ``lower.leaf(e, pad, out)``, which may append lines of its own at the
    statement's indentation: each line's text is complete before it is
    appended, so those lines come first. A guarded assignment prints as a
    C ``if``/``else``.
    """
    pad = "  " * indent
    leaf = None if lower is None else (lambda e: lower.leaf(e, pad, out))

    def ex(e) -> str:
        return print_expr(e, 0, leaf)

    match s:
        case Block(stmts):
            out.append(pad + "{")
            for sub in stmts:
                print_stmt(sub, indent + 1, out, lower)
            out.append(pad + "}")
        case Assign(target, value):
            out.append(f"{pad}{_print_lvalue(target)} = {ex(value)};")
        case ChainAssign(targets, value):
            chain = " = ".join(targets)
            out.append(f"{pad}{chain} = {ex(value)};")
        case TernaryAssign(cond, Var(name), value, discard) if lower is None:
            out.append(f"{pad}({ex(cond)}) ? {name} = {ex(value)} : {ex(discard)};")
        case TernaryAssign(cond, Var(name), value, discard):
            out.append(
                f"{pad}if ({ex(cond)}) {{ {name} = {ex(value)}; }} "
                f"else {{ (void)({ex(discard)}); }}"
            )
        case Assert(cond):
            out.append(f"{pad}assert({ex(cond)});")
        case If(cond, then, orelse):
            out.append(f"{pad}if ({ex(cond)})")
            _print_body(then, indent, out, lower)
            if orelse is not None:
                out.append(pad + "else")
                _print_body(orelse, indent, out, lower)
        case For(iterator, init, test, step, body):
            out.append(
                f"{pad}for ({iterator} = {ex(init)}; "
                f"{ex(test)}; {_print_step(iterator, step, leaf)})"
            )
            _print_body(body, indent, out, lower)
        case Break():
            out.append(pad + "break;")
        case Continue():
            out.append(pad + "continue;")
        case _:
            raise TypeError(f"not a statement: {s!r}")


def _print_body(s, indent: int, out: list[str], lower) -> None:
    # Bodies keep their own Block/non-Block shape so round trips are exact.
    if isinstance(s, Block):
        print_stmt(s, indent, out, lower)
    else:
        print_stmt(s, indent + 1, out, lower)


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
