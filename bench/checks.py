"""Correctness checks of the benchmark, one function per property.

Each check compares against a known answer or a property the witness-pair
method must have, never against saved output of an earlier run, and returns
a list of problems (empty when the check passes). ``test_checks.py`` plants a
wrong answer into each of them.
"""

from __future__ import annotations

import re

# Emitted harnesses are loop-free and array-free, so none of these may occur
# anywhere in the file, preamble included. The one loop the output grammar
# admits is the single-trip header the rewrite keeps so that a break or
# continue still binds to a loop; it runs its body at most once.
_FORBIDDEN = re.compile(r"\[|\b(?:for|while|goto)\b")
_SINGLE_TRIP = re.compile(r"\bfor \((\w+) = 0; \1 < 1; \1\+\+\)")
_NUMERAL = re.compile(r"\d+")
_PRECISION_LINE = re.compile(r"^assertion at location \d+: (precise|imprecise)")


def check_emitted_text(name: str, text: str) -> list[str]:
    rest = _SINGLE_TRIP.sub(lambda m: " " * len(m.group(0)), text)
    m = _FORBIDDEN.search(rest)
    if m is None:
        return []
    line = rest.count("\n", 0, m.start()) + 1
    return [f"{name}: emitted C contains {m.group(0)!r} at line {line}"]


def check_differs_only_in_numerals(family: str, texts: dict[int, str]) -> list[str]:
    """The rewrite of one program moved along the size ladder must give the
    same text up to numerals: its cost and shape ignore the array size."""
    shapes = {size: _NUMERAL.sub("#", t) for size, t in texts.items()}
    sizes = sorted(shapes)
    return [
        f"{family}: emitted C at size {s} differs from size {sizes[0]} "
        "in more than numerals"
        for s in sizes[1:]
        if shapes[s] != shapes[sizes[0]]
    ]


def check_precision(name: str, stdout: str, expected: list[bool]) -> list[str]:
    """Per-assertion verdicts printed by ``transform --check-precision``."""
    lines = map(_PRECISION_LINE.match, stdout.splitlines())
    got = [m.group(1) == "precise" for m in lines if m]
    if got == expected:
        return []
    return [f"{name}: precision verdicts {got}, expected {expected}"]


def check_golden(emitted_ast, golden_ast) -> list[str]:
    if emitted_ast == golden_ast:
        return []
    return ["fig1: emitted program does not parse back to tests/fixtures/fig1_golden.c"]


# Criterion 2's known answers: (original safe, transformed safe, precise).
# fig5's precision is not part of the criterion, so it is not pinned.
EXHAUSTIVE_EXPECTED = {
    "fig1": (True, True, True),
    "fig5": (True, True, None),
    "fig7_small": (True, False, False),
}

# Completed runs of each original under domain 0..3 (4 values): fig5 at 4
# cells reads 8 inputs, fig7_small reads 2, fig1 reads none.
CENSUS_EXPECTED = {"fig1": 1, "fig5": 4**8, "fig7_small": 4**2}


def check_exhaustive(case: str, diff) -> list[str]:
    orig_safe, trans_safe, precise = EXHAUSTIVE_EXPECTED[case]
    problems = []
    if diff.orig_verdict.safe != orig_safe or diff.trans_verdict.safe != trans_safe:
        problems.append(
            f"{case}: verdicts {diff.orig_verdict.outcome}/"
            f"{diff.trans_verdict.outcome}, expected "
            f"{'safe' if orig_safe else 'unsafe'}/{'safe' if trans_safe else 'unsafe'}"
        )
    if not diff.sound:
        problems.append(f"{case}: pair is unsound")
    if precise is not None and diff.precise is not precise:
        problems.append(f"{case}: precise={diff.precise}, expected {precise}")
    return problems


def check_census(case: str, runs: int) -> list[str]:
    want = CENSUS_EXPECTED[case]
    if runs == want:
        return []
    return [f"{case}: original completed {runs} runs, closed form gives {want}"]


def check_replay(name: str, witness, replayed) -> list[str]:
    """A witness must replay to an unsafe run at the same assertion."""
    if not replayed.safe and replayed.witness.failing_assert == witness.failing_assert:
        return []
    where = "safe" if replayed.safe else f"assertion {replayed.witness.failing_assert}"
    return [
        f"{name}: witness {witness.nd_choices} replays to {where}, "
        f"expected assertion {witness.failing_assert}"
    ]


def check_fuzz_pair(seed: int, diff, transformed, conformant: bool) -> list[str]:
    """Soundness, precision consistency and output shape of one fuzz pair."""
    # Imported here: the runner imports the package afresh for each set-up.
    from arraywitness.astnodes import ARRAY_INT, ArrayAccess, For, walk

    problems = []
    if not diff.sound:
        problems.append(f"seed {seed}: unsound (original safe={diff.orig_verdict.safe}, "
                        f"transformed safe={diff.trans_verdict.safe})")
    if diff.precise and not diff.precise_consistent:
        problems.append(f"seed {seed}: classified precise but verdicts differ")
    if not conformant:
        problems.append(f"seed {seed}: transformed program fails the output grammar")
    if any(
        isinstance(n, ArrayAccess) or (isinstance(n, For) and not n.single_trip)
        for n in walk(transformed.body)
    ):
        problems.append(f"seed {seed}: transformed program has a loop or array access")
    if any(d.kind == ARRAY_INT for d in transformed.decls):
        problems.append(f"seed {seed}: transformed program declares an array")
    return problems


def check_failures(failures: dict, known: dict) -> tuple[list[str], list[str]]:
    """Failed operations, ``label -> (kind, reason)``, against the known
    faults, ``label -> (kind, fault)``. A failure is known only when its
    label is listed with the same kind. Returns one line per failure for the
    log, and the problems: the failures that are not known."""
    lines, problems = [], []
    for label, (kind, reason) in sorted(failures.items()):
        listed_kind, fault = known.get(label, (None, None))
        if listed_kind == kind:
            lines.append(f"{label}: {reason} [known fault: {fault}]")
        else:
            lines.append(f"{label}: {reason} [not a known fault]")
            problems.append(f"{label} failed: {reason}")
    return lines, problems
