"""AST for the analyzed C subset and its loop-free, array-free target form.

Source programs use plain assignments, conditionals, counted for-loops and
asserts over scalars and 1-D integer arrays. Transformed programs additionally
contain ternary expressions, guarded ternary assignments, nd()/nd(l,u)
nondeterministic choices and chained witness-index initializations, but no
loops (except single-trip loops kept for break/continue) and no array accesses.

Nodes compare structurally (dataclass equality), including location ids, which
are assigned in pre-order by ``assign_locs`` so that print/parse round trips
preserve them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

BINARY_OPS = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||")


# ---------------------------------------------------------------------------
# lvalues


@dataclass(eq=True)
class Var:
    name: str
    loc: int = -1


@dataclass(eq=True)
class ArrayAccess:
    array: str
    index: "Expr"
    loc: int = -1


LValue = Union[Var, ArrayAccess]


# ---------------------------------------------------------------------------
# expressions


@dataclass(eq=True)
class Const:
    value: int
    loc: int = -1


@dataclass(eq=True)
class Read:
    lv: LValue
    loc: int = -1


@dataclass(eq=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    loc: int = -1


@dataclass(eq=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"
    loc: int = -1


@dataclass(eq=True)
class Nd:
    """Unranged nondeterministic value (target grammar only)."""

    loc: int = -1


@dataclass(eq=True)
class NdRange:
    """Range-restricted nondeterministic value nd(lo, hi)."""

    lo: "Expr"
    hi: "Expr"
    loc: int = -1


@dataclass(eq=True)
class Input:
    """Environment-provided value (``input()`` in source programs).

    Retained verbatim by the transformation; the oracle models it as a
    nondeterministic choice over its configured value domain.
    """

    loc: int = -1


Expr = Union[Const, Read, BinOp, Ternary, Nd, NdRange, Input]


# ---------------------------------------------------------------------------
# statements


@dataclass(eq=True)
class Assign:
    target: LValue
    value: Expr
    loc: int = -1


@dataclass(eq=True)
class ChainAssign:
    """``t1 = t2 = ... = e;`` — every target receives the same value.

    Emitted by the transformation to equate witness indices of same-size
    arrays in a single initialization statement.
    """

    targets: list[str]
    value: Expr
    loc: int = -1


@dataclass(eq=True)
class TernaryAssign:
    """``(cond) ? target = value : discard;``

    Guarded array-write replacement: assigns when the guard holds, otherwise
    only evaluates ``discard`` (the retained right-hand side).
    """

    cond: Expr
    target: Var
    value: Expr
    discard: Expr
    loc: int = -1


@dataclass(eq=True)
class Assert:
    cond: Expr
    loc: int = -1


@dataclass(eq=True)
class If:
    cond: Expr
    then: "Stmt"
    loc: int = -1


@dataclass(eq=True)
class IfElse:
    cond: Expr
    then: "Stmt"
    orelse: "Stmt"
    loc: int = -1


@dataclass(eq=True)
class For:
    iterator: str
    init: Expr
    test: Expr
    step: Expr  # expression giving the iterator's next value, e.g. i + 1
    body: "Stmt"
    loc: int = -1
    # Set by the transformer on degenerate loops kept for break/continue.
    # Excluded from equality so round trips through text stay structural.
    single_trip: bool = field(default=False, compare=False)


@dataclass(eq=True)
class Break:
    loc: int = -1


@dataclass(eq=True)
class Continue:
    loc: int = -1


@dataclass(eq=True)
class Block:
    stmts: list["Stmt"]
    loc: int = -1


Stmt = Union[
    Assign, ChainAssign, TernaryAssign, Assert, If, IfElse, For, Break, Continue, Block
]


# ---------------------------------------------------------------------------
# declarations / program


SCALAR_INT = "scalar-int"
ARRAY_INT = "array-int"


@dataclass(eq=True)
class Decl:
    name: str
    kind: str  # SCALAR_INT or ARRAY_INT
    size: int | None = None  # arrays only, >= 1
    loc: int = -1

    def __post_init__(self) -> None:
        if self.kind == ARRAY_INT and (self.size is None or self.size < 1):
            raise ValueError(f"array {self.name!r} must have size >= 1")
        if self.kind == SCALAR_INT and self.size is not None:
            raise ValueError(f"scalar {self.name!r} cannot carry a size")


@dataclass(eq=True)
class Program:
    decls: list[Decl]
    body: Block


# ---------------------------------------------------------------------------
# traversal helpers


def children(node) -> Iterator:
    """Yield the direct AST children of a node, in syntactic order."""
    match node:
        case Program(decls, body):
            yield from decls
            yield body
        case Block(stmts):
            yield from stmts
        case Assign(target, value):
            yield target
            yield value
        case ChainAssign(_, value):
            yield value
        case TernaryAssign(cond, target, value, discard):
            yield cond
            yield target
            yield value
            yield discard
        case Assert(cond):
            yield cond
        case If(cond, then):
            yield cond
            yield then
        case IfElse(cond, then, orelse):
            yield cond
            yield then
            yield orelse
        case For(_, init, test, step, body):
            yield init
            yield test
            yield step
            yield body
        case Read(lv):
            yield lv
        case ArrayAccess(_, index):
            yield index
        case BinOp(_, lhs, rhs):
            yield lhs
            yield rhs
        case Ternary(cond, then, orelse):
            yield cond
            yield then
            yield orelse
        case NdRange(lo, hi):
            yield lo
            yield hi
        case _:
            return


def walk(node) -> Iterator:
    """Pre-order traversal over the node and all descendants."""
    yield node
    for child in children(node):
        yield from walk(child)


def assign_locs(p: Program) -> Program:
    """Number every node of ``p`` in pre-order, in place. Returns ``p``."""
    for n, node in enumerate(walk(p)):
        if hasattr(node, "loc"):
            node.loc = n
    return p


def loops_of(p: Program) -> list[For]:
    return [n for n in walk(p) if isinstance(n, For)]


def asserts_of(p: Program) -> list[Assert]:
    return [n for n in walk(p) if isinstance(n, Assert)]


def arrays_accessed(node) -> set[str]:
    """Names of arrays read or written anywhere under ``node``."""
    return {n.array for n in walk(node) if isinstance(n, ArrayAccess)}


def has_choice(node) -> bool:
    """True when evaluation of ``node`` may require a nondeterministic choice."""
    return any(isinstance(n, (Nd, NdRange, Input)) for n in walk(node))
