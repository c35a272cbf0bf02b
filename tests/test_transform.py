import pytest

from arraywitness import (
    OracleConfig,
    differential_check,
    emit_verifiable,
    parse,
    print_program,
    transform_program,
    transform_with_info,
    validate_output_grammar,
)
from arraywitness.astnodes import (
    Assign,
    ChainAssign,
    For,
    If,
    Nd,
    NdRange,
    TernaryAssign,
    Var,
    walk,
)
from arraywitness.emit import EmitError
from arraywitness.transform import TransformError

from conftest import load_fixture


def test_golden_fig1_structural(fig1):
    golden = load_fixture("fig1_golden.c")
    assert transform_program(fig1) == golden


def test_transform_is_deterministic(fig7):
    assert transform_program(fig7) == transform_program(fig7)


def test_witness_decls_come_first(fig1):
    t = transform_program(fig1)
    names = [d.name for d in t.decls]
    assert names[:4] == ["x_a_p", "i_a_p", "x_a_q", "i_a_q"]
    assert all(d.size is None for d in t.decls)


def test_chained_init_for_same_size_arrays(fig5):
    t = transform_program(fig5)
    first = t.body.stmts[0]
    assert isinstance(first, ChainAssign)
    assert first.targets == ["i_a", "i_b", "i_c"]
    assert isinstance(first.value, NdRange)


def test_separate_inits_for_distinct_sizes(fig7):
    t = transform_program(fig7)
    inits = t.body.stmts[:2]
    assert all(isinstance(s, Assign) and isinstance(s.value, NdRange) for s in inits)
    ranges = {(s.value.lo.value, s.value.hi.value) for s in inits}
    assert ranges == {(0, 99999), (0, 49999)}


def test_array_write_becomes_ternary_assign(fig1):
    t = transform_program(fig1)
    writes = [n for n in walk(t.body) if isinstance(n, TernaryAssign)]
    assert {w.target.name for w in writes} == {"x_a_p", "x_a_q"}


def test_full_access_pins_iterator(fig1):
    t = transform_program(fig1)
    pins = [
        s
        for s in walk(t.body)
        if isinstance(s, Assign)
        and isinstance(s.target, Var)
        and s.target.name == "i"
        and not isinstance(s.value, (Nd, NdRange))
    ]
    assert len(pins) == 4  # two arrays pinned per full-access loop


def test_partial_access_loop_is_guarded(fig7):
    t = transform_program(fig7)
    guards = [
        s for s in walk(t.body) if isinstance(s, If) and isinstance(s.cond, NdRange)
    ]
    assert len(guards) == 2
    for g in guards:
        body_iter_inits = [
            s
            for s in g.then.stmts
            if isinstance(s, Assign)
            and isinstance(s.target, Var)
            and s.target.name == "i"
            and isinstance(s.value, NdRange)
        ]
        assert len(body_iter_inits) == 1
        (init,) = body_iter_inits
        assert (init.value.lo.value, init.value.hi.value) == (0, 49999)


def test_nd_bracketing_of_defs(fig7):
    t = transform_program(fig7)
    nd_targets = [
        s.target.name
        for s in walk(t.body)
        if isinstance(s, Assign)
        and isinstance(s.target, Var)
        and isinstance(s.value, Nd)
    ]
    # x, y and the witness of a are re-randomized before and after loop 1.
    for name in ("x", "y", "x_a"):
        assert nd_targets.count(name) >= 2


def test_output_conformance_on_fixtures():
    for name in ("fig1.c", "fig5.c", "fig7.c", "fig1_small.c", "fig5_small.c",
                 "fig7_small.c"):
        result = transform_with_info(load_fixture(name))
        report = validate_output_grammar(result.program, result.witness_indices)
        assert report.conformant, (name, report.violations)


def test_break_loop_becomes_single_trip():
    p = parse(
        "int i;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { a[i] = 0; if (i == 2) { break; } } }"
    )
    result = transform_with_info(p)
    loops = [n for n in walk(result.program.body) if isinstance(n, For)]
    assert len(loops) == 1 and loops[0].single_trip
    report = validate_output_grammar(result.program, result.witness_indices)
    assert report.conformant


@pytest.mark.parametrize("text, message", [
    ("int v;\nmain() { for (v = 0; v < 1; v++) { v = 0; } }",
     "loop statement in output program"),
    ("int x;\nint a[2];\nmain() { x = 0; }", "array declaration 'a' in output program"),
], ids=["assigned-iterator", "array-declaration"])
def test_output_grammar_violations(text, message):
    # A single-trip header whose body assigns the iterator may loop forever,
    # and an array declaration is as foreign to the output as an access.
    p = parse(text)
    assert [v.message for v in validate_output_grammar(p).violations] == [message]
    with pytest.raises(EmitError, match=message):
        emit_verifiable(p)


def test_zero_trip_loop_gets_empty_range():
    p = parse("int i, k;\nint a[4];\nmain() { for (i = 5; i < 2; i++) { k = a[0]; } }")
    t = transform_program(p)
    ranges = [
        (n.lo.value, n.hi.value)
        for n in walk(t.body)
        if isinstance(n, NdRange)
        if n.lo.value > n.hi.value
    ]
    assert ranges == [(1, 0)]  # one empty range, whatever the loop's start


# Each loop fails in a value its rewrite must not lose: the iterator's last
# value, the iterator after the loop, and a def that an earlier iteration made.
# A rewrite whose iterator range stops at the first value, or that drops the
# havocs after or before the loop, passes the failure over in one of them.
UNDER_APPROXIMATION_CASES = {
    "last-iteration": "for (i = 0; i < 3; i++) { assert(i < 2); }",
    "iterator-after-the-loop": "for (i = 0; i < 2; i++) { k = 0; } assert(i != 2);",
    "def-of-an-earlier-iteration": "for (i = 0; i < 2; i++) { assert(k == 0); k = 1; }",
}


@pytest.mark.parametrize("case", UNDER_APPROXIMATION_CASES)
def test_rewrite_keeps_a_failure_of_any_iteration(case):
    p = parse(f"int i, k;\nmain() {{ {UNDER_APPROXIMATION_CASES[case]} }}")
    diff = differential_check(p, cfg=OracleConfig(value_domain=(0, 2)))
    assert (diff.orig_verdict.outcome, diff.trans_verdict.outcome) == ("unsafe", "unsafe")


def test_non_unit_step_alignment_guard():
    p = parse("int i, k;\nint a[8];\nmain() { for (i = 1; i < 8; i += 2) { k = a[0]; } }")
    t = print_program(transform_program(p))
    assert "i % 2 == 1" in t


def test_loop_free_array_free_program_is_preserved():
    p = parse("int x, y;\nmain() { x = 1; y = x + 2; assert(y == 3); }")
    t = transform_program(p)
    assert print_program(t) == print_program(p)


def test_source_grammar_rejects_target_constructs():
    with pytest.raises(TransformError):
        transform_program(parse("int x;\nmain() { x = nd(); }"))
    with pytest.raises(TransformError):
        transform_program(parse("int a, b;\nmain() { a = b = 1; }"))


def test_source_grammar_error_names_the_first_target_construct():
    # Pre-order: nd(0, 1), the left operand, comes before the ternary and nd().
    p = parse("int x, y;\nmain() { x = 0; y = nd(0, 1) + (x > 0 ? nd() : 1); }")
    (first,) = [n for n in walk(p) if isinstance(n, NdRange)]
    with pytest.raises(TransformError, match=f"^construct NdRange at location {first.loc} is"):
        transform_program(p)


def test_transformed_output_reparses(fig5):
    t = transform_program(fig5)
    assert parse(print_program(t)) == t


def test_conditional_then_branch_keeps_its_braces():
    # Printed bare, the inner if would capture the else in C.
    p = parse(
        "int x, c, d;\nmain() { if (c > 0) { if (d > 0) { x = 1; } } else { x = 2; } }"
    )
    t = transform_program(p)
    assert parse(print_program(t)) == t
