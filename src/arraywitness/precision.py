"""Classifies assertions for which the transformation is exact.

For a qualifying assertion the transformed program fails if and only if the
original does, so a bounded model checker's verdict transfers back. The check
works by showing that no nondeterministically chosen value introduced by the
transformation can reach the assertion: the enclosing loop and every loop
feeding it must be full-access (rule l1), dependent array reads must use the
loop iterator as index (a2) on arrays that keep their witness variable intact
(a3), and dependent scalars must not be clobbered by the nd brackets (s4),
with matching conditions d5/d6 on the defining assignments. Rules s4 and d6
admit a relaxation when the scalar is re-defined from a constant or the loop
iterator before every use.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .analysis import ProgramFacts, analyze_program
from .astnodes import (
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Block,
    Const,
    For,
    If,
    Input,
    Program,
    Read,
    Var,
    _read_var,
    mentions,
    walk,
)

RULE_IDS = ("l1", "a2", "a3", "s4", "d5", "d6")


@dataclass
class DependenceClosure:
    v_imp: set[str]
    e_imp: set[int]  # location ids of dependent array access expressions
    s_def: set[int]  # location ids of loops whose definitions reach the assertion


@dataclass
class RuleViolation:
    rule: str
    loc: int
    note: str


@dataclass
class PrecisionVerdict:
    assertion_loc: int
    violated_rules: list[RuleViolation] = field(default_factory=list)

    @property
    def precise(self) -> bool:
        return not self.violated_rules


# ---------------------------------------------------------------------------
# expression helpers


def _scalar_reads(e) -> set[str]:
    return {
        n.lv.name for n in walk(e) if isinstance(n, Read) and isinstance(n.lv, Var)
    }


def _array_reads(e) -> list[ArrayAccess]:
    return [n for n in walk(e) if isinstance(n, ArrayAccess)]


def _const_or_iterator_only(e, iterator: str) -> bool:
    """RHS shapes whose value survives the transformation exactly: built from
    constants, the loop iterator and environment inputs (which the transform
    retains verbatim)."""
    for n in walk(e):
        t = type(n)
        if t is Var:
            if n.name != iterator:
                return False
        # A read of a variable is checked at the Var the walk visits next.
        elif not (t is Const or t is BinOp or t is Input or t is Read and type(n.lv) is Var):
            return False
    return True


# ---------------------------------------------------------------------------
# dependence closure


def _absorb(facts: ProgramFacts, scope, guards_of, roots=(), scalars=(), arrays=()):
    """Close ``roots`` and the seed names under the assignments in ``scope``.

    An expression reached makes the scalars and arrays it reads relevant; an
    assignment in scope to a relevant name is taken, and its index,
    right-hand side and ``guards_of`` are reached in turn. Assignments are
    taken in rounds, each in program order: a scalar counts from the moment
    it becomes relevant, an array from the next round on. That order fixes
    the order of the array reads returned, and so of the a2 findings; the
    heap keyed by (round, ``loc``), as locations run in program order, keeps
    it and takes each assignment once.
    Returns the relevant scalars, the array reads reached (one per location)
    and the assignments taken.
    """
    rel_s: set[str] = set()
    rel_a: set[str] = set()
    reads: list[ArrayAccess] = []
    seen: set[int] = set()
    locs: set[int] = set()
    heap: list = []

    def relevant(name: str, array: bool, rnd, pos) -> None:
        names = rel_a if array else rel_s
        if name in names:
            return
        names.add(name)
        for d in (facts.writes if array else facts.defs).get(name, ()):
            if scope(d):
                heapq.heappush(heap, (rnd + (array or d.loc < pos), d.loc, d))

    def absorb(e, rnd, pos) -> None:
        if id(e) in seen:
            return
        seen.add(id(e))
        for n in walk(e):
            if isinstance(n, Read) and isinstance(n.lv, Var):
                relevant(n.lv.name, False, rnd, pos)
            elif isinstance(n, ArrayAccess) and n.loc not in locs:
                locs.add(n.loc)
                reads.append(n)
                relevant(n.array, True, rnd, pos)

    for x in scalars:
        relevant(x, False, -1, math.inf)
    for a in arrays:
        relevant(a, True, -1, math.inf)
    for e in roots:
        absorb(e, -1, math.inf)
    taken: list[Assign] = []
    while heap:
        rnd, pos, d = heapq.heappop(heap)
        taken.append(d)
        if isinstance(d.target, ArrayAccess):
            absorb(d.target.index, rnd, pos)
        absorb(d.value, rnd, pos)
        for g in guards_of(d):
            absorb(g, rnd, pos)
    return rel_s, reads, taken


def _closure(facts: ProgramFacts, assertion_loc: int):
    """The assertion's loop s_a and its v_imp, e_imp and s_def as
    :func:`dependence_closure` describes them, s_def in program order; None
    for an assertion outside every loop."""
    assertion = facts.asserts.get(assertion_loc)
    if assertion is None:
        raise ValueError(f"location {assertion_loc} is not an assertion")
    if not facts.loops[id(assertion)]:
        return None
    s_a = facts.loops[id(assertion)][-1]
    outer = len(facts.guards[id(s_a)])

    def guards_in_loop(node) -> tuple:
        return facts.guards[id(node)][outer:]

    roots = (assertion.cond, *guards_in_loop(assertion))
    v_imp, e_imp, _ = _absorb(
        facts, lambda d: s_a in facts.loops[id(d)], guards_in_loop, roots=roots
    )
    _, _, defs = _absorb(
        facts,
        lambda d: True,
        lambda d: facts.guards[id(d)],
        scalars=v_imp,
        arrays={acc.array for acc in e_imp},
    )
    s_def = {id(loop): loop for d in defs for loop in facts.loops[id(d)]}
    in_order = sorted(s_def.values(), key=lambda loop: loop.loc)
    return s_a, v_imp, e_imp, in_order


def dependence_closure(p: Program, assertion_loc: int) -> DependenceClosure:
    """Variables, array accesses and defining loops the assertion depends on.

    v_imp/e_imp are the data and control dependences within the enclosing
    loop; s_def collects every loop (anywhere) whose body defines a name the
    assertion transitively depends on. All three sets over-approximate. An
    assertion outside every loop has no closure and raises ``ValueError``. The
    cost is one :func:`analyze_program` scan plus work proportional to the
    closure: the assignments to the names it reaches and their expressions.
    """
    closure = _closure(analyze_program(p), assertion_loc)
    if closure is None:
        raise ValueError(f"assertion at location {assertion_loc} is not inside a loop")
    _, v_imp, e_imp, s_def = closure
    return DependenceClosure(
        v_imp=v_imp,
        e_imp={acc.loc for acc in e_imp},
        s_def={loop.loc for loop in s_def},
    )


# ---------------------------------------------------------------------------
# the s4/d6 relaxation: definition before use from a constant or the iterator


def _def_before_use_ok(loop: For, x: str) -> bool:
    """Every path through one body iteration re-defines ``x`` from a constant
    or the loop iterator before each of its uses. Anything unclear (nested
    loops touching ``x``) counts as a failure."""

    def uses(e) -> bool:
        return x in _scalar_reads(e)

    def stmt_ok(s, defined: bool) -> tuple[bool, bool]:
        # Returns (defined after s, still ok).
        t = type(s)
        if t is Assign and type(s.target) is Var:
            if uses(s.value) and not defined:
                return defined, False
            if s.target.name == x:
                defined = _const_or_iterator_only(s.value, loop.iterator)
            return defined, True
        if t is Block:
            for sub in s.stmts:
                defined, ok = stmt_ok(sub, defined)
                if not ok:
                    return defined, False
            return defined, True
        if t is If:
            if uses(s.cond) and not defined:
                return defined, False
            d1, ok1 = stmt_ok(s.then, defined)
            if s.orelse is None:  # a missing else leaves x defined as before
                return defined and d1, ok1
            d2, ok2 = stmt_ok(s.orelse, defined)
            return d1 and d2, ok1 and ok2
        if t is Assign and type(s.target) is ArrayAccess:
            return defined, defined or not (uses(s.target.index) or uses(s.value))
        if t is Assert:
            return defined, defined or not uses(s.cond)
        if t is For and mentions(s, x):
            return False, False
        return defined, True  # break, continue, and a loop that leaves x alone

    _, ok = stmt_ok(loop.body, False)
    return ok


# ---------------------------------------------------------------------------
# classification


def classify(
    p: Program, assertion_loc: int, facts: ProgramFacts | None = None
) -> PrecisionVerdict:
    """Apply the precision rules to one assertion.

    The verdict is conservative: a precise result guarantees the transformed
    program preserves the assertion's verdict, an imprecise result only means
    no guarantee is made. An assertion outside every loop violates l1.
    ``facts`` must describe ``p``; without it they are computed here. Given
    the facts, the cost is proportional to the assertion's dependence
    closure and the loops it involves, not to ``p``.
    """
    facts = facts or analyze_program(p)
    closure = _closure(facts, assertion_loc)
    if closure is None:
        return PrecisionVerdict(
            assertion_loc, [RuleViolation("l1", assertion_loc, "assertion is not inside a loop")]
        )
    s_a, v_imp, e_imp, s_def = closure
    summaries = facts.summaries
    rel_arrays = {acc.array for acc in e_imp}
    involved = [s_a] + [s for s in s_def if s is not s_a]
    involved.sort(key=lambda s: s.loc)

    violations: list[RuleViolation] = []

    # l1: the assertion loop and every defining loop covers its arrays fully.
    for loop in involved:
        if not summaries[loop.loc].full_access:
            violations.append(
                RuleViolation("l1", loop.loc, "loop is not a full-access loop")
            )

    # a2: dependent array reads are indexed by the assertion loop's iterator
    # and sit inside loops (reads outside any loop lose their iterator pin).
    for acc in e_imp:
        if _read_var(acc.index) != s_a.iterator:
            violations.append(
                RuleViolation(
                    "a2",
                    acc.loc,
                    f"index of {acc.array}[...] is not the loop iterator "
                    f"{s_a.iterator!r}",
                )
            )
    # Reads reached through scalar assignments outside every loop become
    # guarded witness reads without an iterator pin.
    _, outside, _ = _absorb(
        facts,
        lambda d: isinstance(d.target, Var) and not facts.loops[id(d)],
        lambda d: (),
        scalars=v_imp,
    )
    for acc in outside:
        violations.append(
            RuleViolation(
                "a2", acc.loc, f"dependent read of {acc.array!r} outside any loop"
            )
        )

    # a3: those arrays keep their witness variable across the involved loops.
    for arr in sorted(rel_arrays):
        for loop in involved:
            if arr in summaries[loop.loc].defs:
                violations.append(
                    RuleViolation(
                        "a3",
                        loop.loc,
                        f"array {arr!r} is nd-bracketed by the loop",
                    )
                )

    # s4: dependent scalars escape the nd brackets, or are re-defined from a
    # constant or the iterator before every use (relaxation).
    for x in sorted(v_imp):
        if x == s_a.iterator:
            continue  # pinned by the i = i_a the full-access form inserts
        clobbered = [loop for loop in involved if x in summaries[loop.loc].defs]
        if not clobbered and x in facts.iterators:
            # Another loop's iterator is nd-assigned when that loop is
            # removed, which its summary's defs do not record.
            clobbered = [s_a]
        if clobbered and not _def_before_use_ok(s_a, x):
            violations.append(
                RuleViolation(
                    "s4",
                    clobbered[0].loc,
                    f"scalar {x!r} may carry a nondeterministic value into "
                    "the assertion",
                )
            )

    # d5/d6: right-hand sides of array writes in defining loops.
    for loop in s_def:
        for node in walk(loop.body):
            if type(node) is not Assign or type(node.target) is not ArrayAccess:
                continue
            rhs = node.value
            for acc in _array_reads(rhs):
                if _read_var(acc.index) != loop.iterator:
                    violations.append(
                        RuleViolation(
                            "d5",
                            acc.loc,
                            f"array read {acc.array}[...] not indexed "
                            "by the defining loop's iterator",
                        )
                    )
            for x in sorted(_scalar_reads(rhs) - {loop.iterator}):
                if x in summaries[loop.loc].defs and not _def_before_use_ok(loop, x):
                    violations.append(
                        RuleViolation(
                            "d6",
                            node.loc,
                            f"scalar {x!r} in the right-hand side is "
                            "nd-bracketed without a dominating "
                            "re-definition",
                        )
                    )

    return PrecisionVerdict(assertion_loc, violations)


def classify_all(p: Program, facts: ProgramFacts | None = None) -> list[PrecisionVerdict]:
    """One verdict per assertion, in program order.

    The facts are built once (or taken from the caller) and shared by every
    :func:`classify` call, so the cost is one scan of ``p`` plus, per
    assertion, work proportional to its dependence closure.
    """
    facts = facts or analyze_program(p)
    return [classify(p, loc, facts) for loc in facts.asserts]


def classify_program(p: Program, facts: ProgramFacts | None = None) -> bool | None:
    """True when every assertion classifies precise, None when there is no
    assertion, False otherwise (including assertions outside loops).
    ``facts``, when given, must describe ``p``."""
    verdicts = classify_all(p, facts)
    return all(v.precise for v in verdicts) if verdicts else None
