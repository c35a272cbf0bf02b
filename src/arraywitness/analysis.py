"""Static facts feeding the transformation and the precision rules: array
inventory, full-access detection, modified-variable sets, loop bounds, and
per-node context and def index (``ProgramFacts``).

Safe directions differ per analysis and are relied on by the transformation:
``full_array_access`` may only err towards ``False`` (under-approximation),
``loop_defs`` may only err towards a larger set (over-approximation). A
full-access loop is one whose iterator takes every index 0..K-1 of the arrays
it accesses; an access under a guard may still skip some of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .astnodes import (
    ARRAY_INT,
    ArrayAccess,
    Assign,
    BinOp,
    Break,
    Const,
    Continue,
    For,
    If,
    Program,
    Read,
    Var,
    arrays_accessed,
    children,
    walk,
)


@dataclass(frozen=True)
class ArrayInfo:
    name: str
    size: int
    witness_var: str
    witness_idx: str

    @property
    def lastof(self) -> int:
        """Highest valid index of the array."""
        return self.size - 1


class BoundKind(Enum):
    KNOWN = "known"
    EMPTY = "empty"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class IndexRange:
    kind: BoundKind
    lo: int | None = None
    hi: int | None = None

    @staticmethod
    def known(lo: int, hi: int) -> "IndexRange":
        return IndexRange(BoundKind.KNOWN, lo, hi)

    @staticmethod
    def empty() -> "IndexRange":
        return IndexRange(BoundKind.EMPTY)

    @staticmethod
    def unknown() -> "IndexRange":
        return IndexRange(BoundKind.UNKNOWN)


@dataclass
class LoopSummary:
    loop_loc: int
    iterator: str
    full_access: bool
    defs: set[str]
    bound: IndexRange
    accessed_arrays: list[str] = field(default_factory=list)
    step_const: int | None = None  # constant increment, when the step is i + c
    init_const: int | None = None
    has_break_or_continue: bool = False


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        taken.add(base)
        return base
    n = 1
    while f"{base}_{n}" in taken:
        n += 1
    taken.add(f"{base}_{n}")
    return f"{base}_{n}"


def collect_arrays(p: Program) -> list[ArrayInfo]:
    """One witness pair per declared array, avoiding declared names."""
    taken = {d.name for d in p.decls}
    infos = []
    for d in p.decls:
        if d.kind != ARRAY_INT:
            continue
        witness_var = _fresh(f"x_{d.name}", taken)
        witness_idx = _fresh(f"i_{d.name}", taken)
        infos.append(ArrayInfo(d.name, d.size, witness_var, witness_idx))
    return infos


def _step_const(loop: For) -> int | None:
    match loop.step:
        case BinOp("+", Read(Var(name)), Const(c)) if name == loop.iterator:
            return c
    return None


def _init_const(loop: For) -> int | None:
    match loop.init:
        case Const(c):
            return c
    return None


def loop_bound(loop: For) -> IndexRange:
    """Range of iterator values for constant-shaped headers.

    ``for(i=c1; i<c2; i+=c3)`` (or ``<=``) yields [c1, largest reached value];
    a zero-trip header yields Empty; anything else (non-constant bounds,
    non-positive or non-constant step, other comparisons) is Unknown.
    """
    c1 = _init_const(loop)
    c3 = _step_const(loop)
    if c1 is None or c3 is None or c3 < 1:
        return IndexRange.unknown()
    match loop.test:
        case BinOp("<", Read(Var(name)), Const(c2)) if name == loop.iterator:
            limit = c2 - 1
        case BinOp("<=", Read(Var(name)), Const(c2)) if name == loop.iterator:
            limit = c2
        case _:
            return IndexRange.unknown()
    if c1 > limit:
        return IndexRange.empty()
    return IndexRange.known(c1, c1 + ((limit - c1) // c3) * c3)


def _is_iter_read(e, iterator: str) -> bool:
    return isinstance(e, Read) and isinstance(e.lv, Var) and e.lv.name == iterator


def full_array_access(loop: For, arrays: list[ArrayInfo]) -> bool:
    """Conservative check that the loop's iterator takes every index 0..K-1 of
    every array the loop accesses.

    That is all the full-access branch of ``transform_loop`` and rule l1 need:
    the rewrite runs the body once with the iterator pinned to the witness
    index, which is one of the original's iterations. Whether an access runs
    at that index is left to the guards in the body, which the rewrite keeps;
    ``if (i == 0) { x = a[i]; }`` reads only ``a[0]`` and still counts.

    Requires: unit-step ``for(i=0; i<K; i++)`` (or ``i<=K-1``) with constant
    K; every accessed array sized exactly K; every access indexed by the bare
    iterator; no break/continue or iterator assignment in the body; no nested
    loop over the same arrays. Any miss returns False.
    """
    sizes = {a.name: a.size for a in arrays}
    bound = loop_bound(loop)
    if (
        bound.kind != BoundKind.KNOWN
        or bound.lo != 0
        or _step_const(loop) != 1
    ):
        return False
    trip_count = bound.hi + 1
    accessed = arrays_accessed(loop.body)
    if not accessed:
        return False
    if any(sizes.get(a) != trip_count for a in accessed):
        return False
    for node in walk(loop.body):
        match node:
            case ArrayAccess(index=index):
                if not _is_iter_read(index, loop.iterator):
                    return False
            case Break() | Continue():
                return False
            case Assign(Var(name)) if name == loop.iterator:
                return False
            case For() as nested if nested is not loop:
                if arrays_accessed(nested) & accessed:
                    return False
                if nested.iterator == loop.iterator:
                    return False
    return True


def _const_def_dominates(body, name: str) -> bool:
    """True when a top-level constant assignment to ``name`` precedes every
    other mention of ``name`` in the body. Conservative: anything unclear
    counts as not dominated."""
    stmts = body.stmts if hasattr(body, "stmts") else [body]
    for s in stmts:
        match s:
            case Assign(Var(n), Const()) if n == name:
                return True
        mentioned = any(
            (isinstance(n, Var) and n.name == name)
            or (isinstance(n, For) and n.iterator == name)
            for n in walk(s)
        )
        if mentioned:
            return False
    return False


def loop_defs(loop: For) -> set[str]:
    """Over-approximated set of variables (incl. arrays) the loop modifies.

    Scalars assigned in the body are included unless every assignment to them
    has a constant right-hand side that dominates all their uses in the body;
    the iterator is never included; an array is included when some write uses
    an index not syntactically equal to the iterator.
    """
    const_only: set[str] = set()
    varying: set[str] = set()
    arrays: set[str] = set()
    for node in walk(loop.body):
        match node:
            case Assign(Var(name), rhs):
                if name == loop.iterator:
                    continue
                if isinstance(rhs, Const):
                    const_only.add(name)
                else:
                    varying.add(name)
            case Assign(ArrayAccess(array, index), _):
                if not _is_iter_read(index, loop.iterator):
                    arrays.add(array)
            case For(iterator=it) if it != loop.iterator:
                # Nested headers modify their own iterator.
                varying.add(it)
    defs = varying | arrays
    for name in const_only - varying:
        # A constant assignment leaves no iteration dependence only when it
        # dominates every use within an iteration; otherwise keep the
        # over-approximation.
        if not _const_def_dominates(loop.body, name):
            defs.add(name)
    return defs


def analyze_loop(loop: For, arrays: list[ArrayInfo]) -> LoopSummary:
    accessed_set = arrays_accessed(loop.body)
    return LoopSummary(
        loop_loc=loop.loc,
        iterator=loop.iterator,
        full_access=full_array_access(loop, arrays),
        defs=loop_defs(loop),
        bound=loop_bound(loop),
        accessed_arrays=[a.name for a in arrays if a.name in accessed_set],
        step_const=_step_const(loop),
        init_const=_init_const(loop),
        has_break_or_continue=_owns_break_or_continue(loop.body),
    )


def _owns_break_or_continue(node) -> bool:
    """break/continue binding to this loop (nested loops own theirs)."""
    if isinstance(node, (Break, Continue)):
        return True
    if isinstance(node, For):
        return False
    return any(_owns_break_or_continue(c) for c in children(node))


def analyze_program(p: Program) -> tuple[list[ArrayInfo], dict[int, LoopSummary]]:
    """Array inventory and a summary for every loop, keyed by location id."""
    arrays = collect_arrays(p)
    summaries = {
        loop.loc: analyze_loop(loop, arrays)
        for loop in walk(p.body)
        if isinstance(loop, For)
    }
    return arrays, summaries


class ProgramFacts:
    """What the transformation and the precision rules read about a program,
    computed once: one :func:`analyze_program` call and one walk of the body.
    Every lookup afterwards is a dictionary access, so a client that follows
    def chains pays only for the chains it follows.

    - ``arrays``, ``summaries``: as :func:`analyze_program` returns them;
    - ``loops``, ``guards``: per node (keyed by ``id``), its enclosing loops
      and the conditions of its enclosing ifs, outermost first;
    - ``order``: per node (keyed by ``id``), its pre-order position;
    - ``nodes``: location id -> node;
    - ``defs``, ``writes``: per scalar, its assignments, and per array, its
      element writes, in program order;
    - ``iterators``: the iterator names of all loops.
    """

    def __init__(self, p: Program):
        self.arrays, self.summaries = analyze_program(p)
        self.loops: dict[int, tuple[For, ...]] = {}
        self.guards: dict[int, tuple] = {}
        self.order: dict[int, int] = {}
        self.nodes: dict[int, object] = {d.loc: d for d in p.decls}
        self.defs: dict[str, list[Assign]] = {}
        self.writes: dict[str, list[Assign]] = {}
        self.iterators: set[str] = set()
        self._visit(p.body, (), ())

    def _visit(self, node, loops, guards) -> None:
        self.loops[id(node)] = loops
        self.guards[id(node)] = guards
        self.order[id(node)] = len(self.order)
        self.nodes[node.loc] = node
        match node:
            case For():
                self.iterators.add(node.iterator)
                loops += (node,)
            case Assign(Var(name)):
                self.defs.setdefault(name, []).append(node)
            case Assign(ArrayAccess(array)):
                self.writes.setdefault(array, []).append(node)
            case If(cond):
                self._visit(cond, loops, guards)
                for branch in children(node)[1:]:
                    self._visit(branch, loops, guards + (cond,))
                return
        for c in children(node):
            self._visit(c, loops, guards)
