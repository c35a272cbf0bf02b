"""AST for the analyzed C subset and its loop-free, array-free target form.

Source programs use plain assignments, conditionals, counted for-loops and
asserts over scalars and 1-D integer arrays. Transformed programs additionally
contain ternary expressions, guarded ternary assignments, nd()/nd(l,u)
nondeterministic choices and chained witness-index initializations, but no
loops (except single-trip loops kept for break/continue) and no array accesses.

Nodes compare structurally (dataclass equality), including location ids, which
are assigned in pre-order by ``assign_locs`` so that print/parse round trips
preserve them. Nodes are slotted: they carry only their declared fields.

``walk`` and ``assign_locs`` expand nodes through one child table
(``_CHILDREN``); ``walk`` visits a subtree in pre-order from an explicit
stack. ``clone`` copies a subtree field by field.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterator, Union

# The binary operators and their binding strengths, as in C: higher binds
# tighter, and every level associates to the left. The parser and the printer
# both read this table.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


# ---------------------------------------------------------------------------
# lvalues


@dataclass(eq=True, slots=True)
class Var:
    name: str
    loc: int = -1


@dataclass(eq=True, slots=True)
class ArrayAccess:
    array: str
    index: "Expr"
    loc: int = -1


LValue = Union[Var, ArrayAccess]


# ---------------------------------------------------------------------------
# expressions


@dataclass(eq=True, slots=True)
class Const:
    value: int
    loc: int = -1


@dataclass(eq=True, slots=True)
class Read:
    lv: LValue
    loc: int = -1


@dataclass(eq=True, slots=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"
    loc: int = -1


@dataclass(eq=True, slots=True)
class Ternary:
    cond: "Expr"
    then: "Expr"
    orelse: "Expr"
    loc: int = -1


@dataclass(eq=True, slots=True)
class Nd:
    """Unranged nondeterministic value (target grammar only)."""

    loc: int = -1


@dataclass(eq=True, slots=True)
class NdRange:
    """Range-restricted nondeterministic value nd(lo, hi)."""

    lo: "Expr"
    hi: "Expr"
    loc: int = -1


@dataclass(eq=True, slots=True)
class Input:
    """Environment-provided value (``input()`` in source programs).

    Retained verbatim by the transformation; the oracle models it as a
    nondeterministic choice over its configured value domain.
    """

    loc: int = -1


Expr = Union[Const, Read, BinOp, Ternary, Nd, NdRange, Input]


# ---------------------------------------------------------------------------
# statements


@dataclass(eq=True, slots=True)
class Assign:
    target: LValue
    value: Expr
    loc: int = -1


@dataclass(eq=True, slots=True)
class ChainAssign:
    """``t1 = t2 = ... = e;`` — every target receives the same value.

    Emitted by the transformation to equate witness indices of same-size
    arrays in a single initialization statement.
    """

    targets: list[str]
    value: Expr
    loc: int = -1


@dataclass(eq=True, slots=True)
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


@dataclass(eq=True, slots=True)
class Assert:
    cond: Expr
    loc: int = -1


@dataclass(eq=True, slots=True)
class If:
    """``if (cond) then`` or, when ``orelse`` is set, ``... else orelse``."""

    cond: Expr
    then: "Stmt"
    orelse: "Stmt | None" = None
    loc: int = -1


@dataclass(eq=True, slots=True)
class For:
    iterator: str
    init: Expr
    test: Expr
    step: Expr  # expression giving the iterator's next value, e.g. i + 1
    body: "Stmt"
    loc: int = -1

    @property
    def single_trip(self) -> bool:
        """``for (v = 0; v < 1; v++)`` whose body never mentions ``v``, kept by
        the rewrite so that a break or continue binds to a loop."""
        match self.init, self.test, self.step:
            case Const(0), BinOp("<", Read(Var(t)), Const(1)), BinOp("+", Read(Var(s)), Const(1)):
                return t == s == self.iterator and not mentions(self.body, t)
        return False


@dataclass(eq=True, slots=True)
class Break:
    loc: int = -1


@dataclass(eq=True, slots=True)
class Continue:
    loc: int = -1


@dataclass(eq=True, slots=True)
class Block:
    stmts: list["Stmt"]
    loc: int = -1


Stmt = Union[Assign, ChainAssign, TernaryAssign, Assert, If, For, Break, Continue, Block]

# The node classes that only transformed programs hold.
TARGET_ONLY = frozenset({Nd, NdRange, Ternary, TernaryAssign, ChainAssign})


# ---------------------------------------------------------------------------
# declarations / program


SCALAR_INT = "scalar-int"
ARRAY_INT = "array-int"


@dataclass(eq=True, slots=True)
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


@dataclass(eq=True, slots=True)
class Program:
    decls: list[Decl]
    body: Block


# ---------------------------------------------------------------------------
# traversal helpers


# The child table: class -> function giving a node's direct children in
# syntactic order. Classes without an entry are leaves. An absent ``else``
# is no child, so no traversal meets None.
_CHILDREN: dict[type, Callable] = {
    Program: lambda n: (*n.decls, n.body),
    Block: attrgetter("stmts"),
    Assign: attrgetter("target", "value"),
    ChainAssign: lambda n: (n.value,),
    TernaryAssign: attrgetter("cond", "target", "value", "discard"),
    Assert: lambda n: (n.cond,),
    If: lambda n: (n.cond, n.then) if n.orelse is None else (n.cond, n.then, n.orelse),
    For: attrgetter("init", "test", "step", "body"),
    Read: lambda n: (n.lv,),
    ArrayAccess: lambda n: (n.index,),
    BinOp: attrgetter("lhs", "rhs"),
    Ternary: attrgetter("cond", "then", "orelse"),
    NdRange: attrgetter("lo", "hi"),
}


def walk(node) -> Iterator:
    """Pre-order traversal over the node and all descendants.

    Iterative: the nodes still to visit sit on an explicit stack, so a deep
    tree costs no Python stack frames.
    """
    expand_of = _CHILDREN.get
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        expand = expand_of(type(node))
        if expand is not None:
            stack += expand(node)[::-1]


# Field names of every node class: the inner nodes of the table, then leaves.
_FIELDS = {
    cls: tuple(f.name for f in fields(cls))
    for cls in (*_CHILDREN, Var, Const, Nd, Input, Break, Continue, Decl)
}


def clone(node):
    """Structural copy of a subtree: every node and every list is new, while
    names and numbers are shared (they are immutable)."""
    cls = type(node)
    args = []
    for name in _FIELDS[cls]:
        v = getattr(node, name)
        if type(v) in _FIELDS:
            v = clone(v)
        elif type(v) is list:
            v = [clone(x) if type(x) in _FIELDS else x for x in v]
        args.append(v)
    return cls(*args)


def assign_locs(p: Program, max_depth: float = float("inf")) -> Program:
    """Number every node of ``p`` in pre-order, in place. Returns ``p``, or raises
    ``ValueError`` at a node more than ``max_depth`` levels below ``p`` (the
    body is on level 1): a node's level is the number of open iterators."""
    expand_of = _CHILDREN.get
    n = 0
    stack = [iter((*p.decls, p.body))]
    while stack:
        for node in stack[-1]:
            n += 1
            node.loc = n
            expand = expand_of(type(node))
            if expand is not None and (kids := expand(node)):
                stack.append(iter(kids))
                if len(stack) > max_depth:
                    raise ValueError(f"program nested more than {max_depth} levels deep")
                break
        else:
            stack.pop()
    return p


def loops_of(p: Program) -> list[For]:
    return [n for n in walk(p) if isinstance(n, For)]


def asserts_of(p: Program) -> list[Assert]:
    return [n for n in walk(p) if isinstance(n, Assert)]


def mentions(node, name: str) -> bool:
    """Whether a variable, chained target or loop iterator under ``node`` is
    ``name``."""
    return any(
        (isinstance(n, Var) and n.name == name)
        or (isinstance(n, ChainAssign) and name in n.targets)
        or (isinstance(n, For) and n.iterator == name)
        for n in walk(node)
    )
