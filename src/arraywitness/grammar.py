"""Conformance checking against the loop-free, array-free target grammar.

A conformant program has no loop but ``for (v = 0; v < 1; v++)`` with a body
that never mentions ``v`` (``For.single_trip``), no array access or array
declaration, and starts with a prefix of statements that initialize every
witness index from ``nd(lo, hi)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .astnodes import (
    ARRAY_INT,
    ArrayAccess,
    Assign,
    ChainAssign,
    For,
    NdRange,
    Program,
    Var,
    walk,
)


@dataclass
class Violation:
    loc: int
    message: str


@dataclass
class ConformanceReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return not self.violations


def _init_prefix_targets(p: Program) -> set[str]:
    """Identifiers assigned nd(lo, hi) in the leading run of init statements."""
    targets: set[str] = set()
    for s in p.body.stmts:
        t = type(s)
        if t is ChainAssign and type(s.value) is NdRange:
            targets.update(s.targets)
        elif t is Assign and type(s.target) is Var and type(s.value) is NdRange:
            targets.add(s.target.name)
        else:
            break
    return targets


def validate_output_grammar(
    p: Program, witness_indices: Iterable[str] | None = None
) -> ConformanceReport:
    """Report every target-grammar violation in ``p``.

    ``witness_indices`` names the witness-index variables whose initialization
    must lead the program; when omitted (e.g. for a standalone file) only the
    structural loop/array conditions are checked.
    """
    violations = [
        Violation(d.loc, f"array declaration {d.name!r} in output program")
        for d in p.decls if d.kind == ARRAY_INT
    ]
    for node in walk(p.body):
        t = type(node)
        if t is For and not node.single_trip:
            violations.append(Violation(node.loc, "loop statement in output program"))
        elif t is ArrayAccess:
            message = f"array access to {node.array!r} in output program"
            violations.append(Violation(node.loc, message))
    if witness_indices is not None:
        initialized = _init_prefix_targets(p)
        for name in witness_indices:
            if name not in initialized:
                violations.append(Violation(
                    p.body.loc,
                    f"witness index {name!r} is not initialized by a leading nd(lo, hi)",
                ))
    return ConformanceReport(violations)
