"""Property-based checks over randomly generated source programs."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arraywitness import (
    OracleConfig,
    differential_check,
    enumerate_runs,
    generate_program,
    parse,
    print_program,
    transform_program,
    transform_with_info,
    validate_output_grammar,
)
from arraywitness.analysis import analyze_program, loop_bound
from arraywitness.astnodes import (
    ARRAY_INT,
    ArrayAccess,
    Assign,
    Block,
    Const,
    Decl,
    For,
    If,
    Program,
    Read,
    Var,
    loops_of,
    walk,
)
from arraywitness.oracle import BudgetExceeded

seeds = st.integers(min_value=0, max_value=100_000)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_generator_is_deterministic(seed):
    assert generate_program(seed) == generate_program(seed)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_print_parse_round_trip(seed):
    p = generate_program(seed)
    assert parse(print_program(p)) == p
    t = transform_program(p)
    assert parse(print_program(t)) == t


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_transformed_output_is_conformant(seed):
    result = transform_with_info(generate_program(seed))
    report = validate_output_grammar(result.program, result.witness_indices)
    assert report.conformant, report.violations


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_transform_is_deterministic(seed):
    p = generate_program(seed)
    assert transform_with_info(p).program == transform_with_info(p).program


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_loop_defs_over_approximates_assignments(seed):
    p = generate_program(seed)
    summaries = analyze_program(p).summaries
    for loop in loops_of(p):
        defs = summaries[loop.loc].defs
        for node in walk(loop.body):
            match node:
                case Assign(Var(name), rhs) if not isinstance(rhs, Const):
                    iterators = {loop.iterator} | {
                        inner.iterator for inner in walk(loop.body)
                        if hasattr(inner, "iterator")
                    }
                    assert name in defs or name in iterators


def arrays_accessed(node) -> set[str]:
    """Names of arrays read or written anywhere under ``node``."""
    return {n.array for n in walk(node) if isinstance(n, ArrayAccess)}


def _unguarded_arrays(s) -> set[str]:
    """Arrays that statement ``s`` accesses outside the branches of any
    ``if``."""
    match s:
        case Block(stmts):
            return set().union(*map(_unguarded_arrays, stmts))
        case If(cond):
            return arrays_accessed(cond)
    return arrays_accessed(s)


@given(seeds)
@example(12210)  # reads a[i0] only under a guard that holds at i0 == 0
@settings(max_examples=150, deadline=None)
def test_full_access_is_a_dynamic_under_approximation(seed):
    """If the analysis claims a full-access loop, the loop run in isolation
    must take every index 0..K-1: a ``probe[i] = 0;`` write prepended to its
    body touches every probe cell. An array that the body accesses outside
    any ``if`` must be covered as well. Programs without a full-access loop
    pass vacuously."""
    p = generate_program(seed)
    facts = analyze_program(p)
    sizes = {a.name: a.size for a in facts.arrays}
    full = [l for l in loops_of(p) if facts.summaries[l.loc].full_access]
    cfg = OracleConfig(value_domain=(0, 1), max_steps=200_000)
    for loop in full:
        sizes["probe"] = loop_bound(loop)[-1] + 1
        probe = Assign(ArrayAccess("probe", Read(Var(loop.iterator))), Const(0))
        probed = For(loop.iterator, loop.init, loop.test, loop.step,
                     Block([probe, loop.body]))
        decls = [*p.decls, Decl("probe", ARRAY_INT, sizes["probe"])]
        standalone = parse(print_program(Program(decls, Block([probed]))))
        seen: set[tuple[str, int]] = set()
        try:
            verdict = enumerate_runs(
                standalone, cfg, on_array_access=lambda a, i: seen.add((a, i))
            )
        except BudgetExceeded:
            continue
        if not verdict.safe:
            continue  # a failing assert cuts the run short
        for name in {"probe"} | _unguarded_arrays(loop.body):
            covered = {i for a, i in seen if a == name}
            assert covered == set(range(sizes[name])), (name, covered)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_transformation_never_hides_a_failure(seed):
    p = generate_program(seed)
    cfg = OracleConfig(value_domain=(0, 1), max_steps=200_000)
    try:
        diff = differential_check(p, cfg=cfg)
    except BudgetExceeded:
        assume(False)
    assert diff.sound
    if diff.precise:
        assert diff.precise_consistent
