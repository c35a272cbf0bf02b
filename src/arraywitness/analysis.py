"""Static facts feeding the transformation and the precision rules: array
inventory, full-access detection, modified-variable sets, loop bounds, and
per-statement context and def index, all from one scan (``ProgramFacts``).
:func:`analyze_program` is the one way to these facts.

Safe directions differ per fact and are relied on by the transformation:
``LoopSummary.full_access`` may only err towards ``False``
(under-approximation), ``LoopSummary.defs`` may only err towards a larger set
(over-approximation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .astnodes import (
    ARRAY_INT,
    ArrayAccess,
    Assert,
    Assign,
    Break,
    Const,
    Continue,
    For,
    If,
    Program,
    TARGET_ONLY,
    Var,
    _CHILDREN,
    _read_var,
    _var_op_const,
    mentions,
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


@dataclass
class LoopSummary:
    """What :func:`analyze_program` finds about one loop.

    ``full_access``, which may err only towards False: the iterator takes every
    index 0..K-1 of every array the loop accesses. That is all the full-access
    branch of ``transform_loop`` and rule l1 need: the rewrite runs the body
    once with the iterator pinned to the witness index, which is one of the
    original's iterations. Whether an access runs at that index is left to the
    guards in the body, which the rewrite keeps; ``if (i == 0) { x = a[i]; }``
    reads only ``a[0]`` and still counts. It requires a unit-step
    ``for(i=0; i<K; i++)`` (or ``i<=K-1``) with constant K; every accessed
    array sized exactly K; every access indexed by the bare iterator; no
    break/continue or iterator assignment in the body; no nested loop with a
    break/continue or an array access, in its header or its body. Any miss
    gives False.

    ``defs``, which may err only towards a larger set: the variables, arrays
    included, that the loop modifies. Scalars assigned in the body are
    included unless every assignment to them has a constant right-hand side
    that dominates all their uses in the body; the iterator is never
    included; an array is included when some write uses an index not
    syntactically equal to the iterator.
    """

    full_access: bool
    defs: set[str]
    bound: range | None  # see loop_bound
    accessed_arrays: list[str] = field(default_factory=list)
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


def _collect_arrays(p: Program) -> list[ArrayInfo]:
    """One witness pair per declared array, avoiding declared names."""
    taken = {d.name for d in p.decls}
    return [
        ArrayInfo(d.name, d.size, _fresh(f"x_{d.name}", taken), _fresh(f"i_{d.name}", taken))
        for d in p.decls if d.kind == ARRAY_INT
    ]


def loop_bound(loop: For) -> range | None:
    """The iterator's values for a constant header, else None.

    ``for(i=c1; i<c2; i+=c3)`` with ``c3 >= 1`` yields ``range(c1, c2, c3)``,
    and ``i<=c2`` yields ``range(c1, c2 + 1, c3)``; a zero-trip header yields
    an empty range. Anything else (non-constant bounds, non-positive or
    non-constant step, other comparisons) yields None.
    """
    it = loop.iterator
    (op, c2), (plus, c3) = (_var_op_const(e, it) or (None, 0) for e in (loop.test, loop.step))
    if type(loop.init) is Const and op in ("<", "<=") and plus == "+" and c3 >= 1:
        return range(loop.init.value, c2 + (op == "<="), c3)
    return None


@dataclass(slots=True)
class ProgramFacts:
    """What the transformation and the precision rules read about a program,
    as :func:`analyze_program` fills it in one scan. Every lookup is a dictionary
    access, so a client that follows def chains pays only for the chains it follows.

    - ``arrays``: the witness pair of each declared array, in declaration order;
    - ``summaries``: loop location id -> the loop's :class:`LoopSummary`;
    - ``loops``, ``guards``: keyed by ``id`` of each ``Assign``, ``Assert`` and
      ``For`` node, and of no other, in pre-order: its enclosing loops (a loop
      is not among its own) and the conditions of its enclosing ifs, both
      outermost first;
    - ``defs``, ``writes``: scalar name -> its assignments, array name -> its
      element writes, in program order;
    - ``iterators``: the iterator names of all loops;
    - ``asserts``: location id -> assertion, in program order;
    - ``target_only``: the first node of a ``TARGET_ONLY`` class in pre-order,
      or None.
    """

    arrays: list[ArrayInfo]
    summaries: dict[int, LoopSummary] = field(default_factory=dict)
    loops: dict[int, tuple[For, ...]] = field(default_factory=dict)
    guards: dict[int, tuple] = field(default_factory=dict)
    defs: dict[str, list[Assign]] = field(default_factory=dict)
    writes: dict[str, list[Assign]] = field(default_factory=dict)
    iterators: set[str] = field(default_factory=set)
    asserts: dict[int, Assert] = field(default_factory=dict)
    target_only: object = None


@dataclass(slots=True)
class _Body:
    """What a loop's body holds, nested loops included. The scan fills the
    innermost open loop's record and merges it outwards when the loop closes."""

    loop: For | None
    outer: "_Body | None"
    mark: int  # array accesses scanned before the loop's header
    open: tuple  # the loops open in the body, outermost first, this one last
    accesses: set = field(default_factory=set)  # (array, index var or None)
    writes: set = field(default_factory=set)  # the same, for array writes
    const: set = field(default_factory=set)  # scalars assigned a constant
    varying: set = field(default_factory=set)  # assigned otherwise; nested iterators
    owns_jump: bool = False  # a break/continue binding to this loop
    nested: bool = False  # a nested loop has a break/continue or an array access


def _scan(root, facts: ProgramFacts) -> list[_Body]:
    """The record of every loop under ``root``, in pre-order, from one pass that
    expands each node once and fills the per-statement tables of ``facts``. A
    loop's second pop, after its body, closes it; a popped tuple sets the guards."""
    loops = []
    rec = _Body(None, None, 0, ())  # outside every loop
    guards = ()
    stack = [root]
    count = 0  # array accesses scanned so far
    expand_of = _CHILDREN.get
    in_loops, in_guards = facts.loops, facts.guards
    while stack:
        node = stack.pop()
        t = type(node)
        if t is _Body:
            rec.nested |= count != node.mark  # the header accesses an array
            rec = node
            continue
        if t is tuple:
            guards = node
            continue
        if t is For and node is rec.loop:  # its body is done
            outer = rec.outer
            outer.accesses |= rec.accesses
            outer.writes |= rec.writes
            outer.const |= rec.const
            outer.varying |= rec.varying
            outer.varying.add(node.iterator)
            outer.nested |= rec.owns_jump or rec.nested or bool(rec.accesses)
            rec = outer
            continue
        if t is Assign or t is Assert or t is For:
            key = id(node)
            in_loops[key], in_guards[key] = rec.open, guards
        if t is For:
            facts.iterators.add(node.iterator)
            loops.append(_Body(node, rec, count, rec.open + (node,)))
            # The header is in the enclosing body; the record starts this one.
            stack += (node, node.body, loops[-1], node.step, node.test, node.init)
            continue
        if t is ArrayAccess:
            count += 1
            rec.accesses.add((node.array, _read_var(node.index)))
        elif t is Assign:
            target = node.target
            if type(target) is Var:
                (rec.const if type(node.value) is Const else rec.varying).add(target.name)
                facts.defs.setdefault(target.name, []).append(node)
            else:
                rec.writes.add((target.array, _read_var(target.index)))
                facts.writes.setdefault(target.array, []).append(node)
        elif t is Assert:
            facts.asserts[node.loc] = node
        elif t is If:  # the condition, then the branches under it
            cond, *branches = expand_of(If)(node)
            stack += (guards, *branches[::-1], guards + (cond,), cond)
            continue
        elif t is Break or t is Continue:
            rec.owns_jump = True
        elif t in TARGET_ONLY and facts.target_only is None:
            facts.target_only = node
        expand = expand_of(t)
        if expand is not None:
            stack += expand(node)[::-1]
    return loops


def _const_def_dominates(body, name: str) -> bool:
    """True when a top-level constant assignment to ``name`` precedes every
    other mention of ``name`` in the body. Conservative: anything unclear
    counts as not dominated."""
    stmts = body.stmts if hasattr(body, "stmts") else [body]
    for s in stmts:
        if (type(s) is Assign and type(s.target) is Var and s.target.name == name
                and type(s.value) is Const):
            return True
        if mentions(s, name):
            return False
    return False


def analyze_program(p: Program) -> ProgramFacts:
    """The array inventory, a summary for every loop and the per-statement
    tables of ``p``, from one scan of the body."""
    facts = ProgramFacts(_collect_arrays(p))
    sizes = {a.name: a.size for a in facts.arrays}
    for rec in _scan(p.body, facts):
        loop, it = rec.loop, rec.loop.iterator
        accessed = {a for a, _ in rec.accesses}
        bound = loop_bound(loop)
        full = (  # LoopSummary's list; a nested loop over `it` puts it in varying
            bound is not None and bound.start == 0 and bound.step == 1
            and bool(accessed) and all(sizes.get(a) == len(bound) for a in accessed)
            and {index for _, index in rec.accesses} == {it}
            and not (rec.owns_jump or rec.nested)
            and it not in rec.const and it not in rec.varying
        )
        defs = rec.varying - {it}
        defs |= {a for a, index in rec.writes if index != it}
        for name in rec.const - rec.varying - {it}:
            # A constant assignment leaves no iteration dependence only when
            # it dominates every use within an iteration.
            if not _const_def_dominates(loop.body, name):
                defs.add(name)
        facts.summaries[loop.loc] = LoopSummary(
            full, defs, bound,
            [a.name for a in facts.arrays if a.name in accessed],
            rec.owns_jump,
        )
    return facts
