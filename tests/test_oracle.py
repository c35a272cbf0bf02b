import gc
import itertools
import weakref

import pytest

from arraywitness import (
    OracleConfig,
    differential_check,
    enumerate_runs,
    generate_program,
    parse,
    replay_trace,
    transform_program,
)
from arraywitness.astnodes import (
    PRECEDENCE,
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Const,
    For,
    NdRange,
    Read,
    TernaryAssign,
    Var,
    walk,
)
from arraywitness.oracle import (
    BudgetExceeded,
    NonConstantBound,
    OracleError,
    Trace,
    _c_div,
    _c_mod,
    _initial_state,
    _loop_template,
    _Machine,
    scale_arrays,
)

SMALL = OracleConfig(value_domain=(0, 3))


def test_safe_program():
    p = parse("int x;\nmain() { x = 1; assert(x == 1); }")
    assert enumerate_runs(p, SMALL).safe


def test_unsafe_program_trace():
    p = parse("int i;\nint a[4];\nmain() { for (i = 0; i < 4; i++) { a[i] = i; } assert(a[1] == 0); }")
    v = enumerate_runs(p, SMALL)
    assert v.outcome == "unsafe"
    assert v.witness.nd_choices == []  # deterministic program
    assert v.witness.final_state["a[1]"] == 1


def test_first_failure_is_lexicographically_smallest():
    p = parse("int x;\nmain() { x = nd(); assert(x == 0); }")
    v = enumerate_runs(p, SMALL)
    assert v.witness.nd_choices == [1]


def test_replay_reproduces_failure():
    p = parse(
        "int x, y;\nmain() { x = nd(); y = input(); assert(x + y < 5); }"
    )
    v = enumerate_runs(p, SMALL)
    assert not v.safe
    r = replay_trace(p, v.witness.nd_choices, SMALL)
    assert r.outcome == "unsafe"
    assert r.witness.failing_assert == v.witness.failing_assert
    assert r.witness.final_state == v.witness.final_state


def test_replay_rejects_out_of_range_choice():
    p = parse("int x;\nmain() { x = nd(0, 1); assert(x == 0); }")
    with pytest.raises(OracleError, match="outside"):
        replay_trace(p, [7], SMALL)


def test_enumeration_is_deterministic():
    p = parse("int x, y;\nmain() { x = nd(); y = nd(); assert(x * y != 6); }")
    v1 = enumerate_runs(p, SMALL)
    v2 = enumerate_runs(p, SMALL)
    assert v1.outcome == v2.outcome
    assert v1.witness.nd_choices == v2.witness.nd_choices


def test_division_by_zero_is_unsafe():
    p = parse("int x, y;\nmain() { x = nd(); y = 4 / x; assert(y >= 0); }")
    v = enumerate_runs(p, SMALL)
    assert not v.safe
    assert v.witness.nd_choices == [0]


def test_c_truncating_division():
    assert _c_div(7, 2) == 3
    assert _c_div(-7, 2) == -3
    assert _c_div(7, -2) == -3
    assert _c_mod(-7, 2) == -1
    assert _c_mod(7, -2) == 1


def test_budget_exceeded():
    p = parse("int i, k;\nmain() { for (i = 0; i < 100; i++) { k = nd(); } }")
    with pytest.raises(BudgetExceeded):
        enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=50))


def test_choice_wider_than_the_budget_is_refused():
    # A choice with nothing after it costs no step, so only its width can
    # stop an enumeration of 100,001 values under a 1,000-step budget.
    p = parse("int k;\nmain() { k = input(); }")
    cfg = OracleConfig(value_domain=(0, 100_000), max_steps=1_000)
    with pytest.raises(BudgetExceeded, match="more than 1000 values"):
        enumerate_runs(p, cfg)
    ranged = parse("int k;\nmain() { k = nd(0, 1000); }")
    with pytest.raises(BudgetExceeded):
        enumerate_runs(ranged, cfg)
    assert enumerate_runs(p, OracleConfig(value_domain=(0, 999), max_steps=1_000)).safe


def test_non_constant_bound_rejected():
    p = parse("int i, n;\nmain() { n = input(); for (i = 0; i < n; i++) { n = n; } }")
    with pytest.raises(NonConstantBound):
        enumerate_runs(p, SMALL)


def test_non_constant_bound_is_rejected_before_any_run():
    # No run reaches the loop, and no run completes: the check is at set-up,
    # also for a loop nested in a generated loop, or in a loop with a choice.
    bad = "if (n == 0) { for (i = 0; i < n; i++) { n = n; } }"
    for body in (f"n = 1; {bad}",
                 f"n = 1; for (j = 0; j < 2; j++) {{ {bad} }}",
                 f"for (j = 0; j < 2; j++) {{ n = input() + 1; {bad} }}"):
        p = parse(f"int i, j, n;\nmain() {{ {body} }}")
        states = []
        with pytest.raises(NonConstantBound, match="non-constant bound"):
            enumerate_runs(p, SMALL, on_complete=states.append)
        assert states == [], body


def test_out_of_bounds_is_an_error():
    p = parse("int i;\nint a[2];\nmain() { i = 3; a[i] = 0; }")
    with pytest.raises(OracleError, match="out of bounds"):
        enumerate_runs(p, SMALL)


def test_out_of_bounds_read_is_an_error():
    p = parse("int i, x;\nint a[2];\nmain() { i = 3; x = a[i]; }")
    with pytest.raises(OracleError, match="out of bounds"):
        enumerate_runs(p, SMALL)


@pytest.mark.parametrize("index", ["2", "nd(2, 2)"])
def test_an_out_of_bounds_store_fails_before_its_value_is_evaluated(index):
    # With or without a choice in the index, the index is checked first, so
    # the division by zero in the value is never reached.
    p = parse(f"int x;\nint a[2];\nmain() {{ a[{index}] = 1 / x; }}")
    with pytest.raises(OracleError, match=r"^index 2 out of bounds for a\[2\] at location 4$"):
        enumerate_runs(p, SMALL)


# The programs below make no nondeterministic choice, so they exercise only
# the choice-free evaluation path.


def test_or_short_circuits_division():
    p = parse("int x;\nmain() { x = 0; assert(x == 0 || 4 / x > 0); }")
    assert enumerate_runs(p, SMALL).safe


def test_and_short_circuits_division():
    p = parse("int x;\nmain() { x = 0; assert((x != 0 && 4 / x > 0) == 0); }")
    assert enumerate_runs(p, SMALL).safe


def test_ternary_skips_untaken_division():
    p = parse("int x, y;\nmain() { x = 0; y = x == 0 ? 1 : 4 / x; assert(y == 1); }")
    assert enumerate_runs(p, SMALL).safe


def test_deterministic_division_by_zero_fails_at_the_division():
    p = parse("int x, y;\nmain() { x = 0; y = 4 / x; }")
    division = p.body.stmts[1].value
    v = enumerate_runs(p, SMALL)
    assert not v.safe
    assert v.witness.nd_choices == []
    assert v.witness.failing_assert == division.loc
    assert v.witness.final_state == {"x": 0, "y": 0}


def test_division_by_zero_after_a_choice_keeps_the_choice():
    # The division is a choice-free operand of an expression that has already
    # chosen: the witness holds that choice and replays to the division.
    p = parse("int x, y;\nmain() { x = 0; y = nd() + 4 / x; }")
    division = p.body.stmts[1].value.rhs
    v = enumerate_runs(p, SMALL)
    assert not v.safe
    assert v.witness.nd_choices == [0]
    assert v.witness.failing_assert == division.loc
    r = replay_trace(p, v.witness.nd_choices, SMALL)
    assert r.witness == v.witness


@pytest.mark.parametrize("seed", [278, 325])
def test_division_witnesses_of_generated_programs_replay(seed):
    cfg = OracleConfig(value_domain=(0, 2), max_steps=400_000)
    original = generate_program(seed)
    diff = differential_check(original, cfg=cfg)
    sides = ((original, diff.orig_verdict), (transform_program(original), diff.trans_verdict))
    replayed = 0
    for program, verdict in sides:
        if not verdict.safe:
            r = replay_trace(program, verdict.witness.nd_choices, cfg)
            assert r.witness == verdict.witness
            replayed += 1
    assert replayed


def test_array_access_callbacks_in_evaluation_order():
    p = parse(
        "int x;\nint a[4], b[4], c[4];\n"
        "main() { b[1] = 2; x = a[b[1]] + c[0]; a[x] = b[3]; }"
    )
    seen = []
    assert enumerate_runs(p, SMALL, on_array_access=lambda a, i: seen.append((a, i))).safe
    assert seen == [("b", 1), ("b", 1), ("a", 2), ("c", 0), ("b", 3), ("a", 0)]
    # A read before a choice in the same expression is made once per evaluation.
    p = parse("int x;\nint a[4];\nmain() { x = a[1] + input(); }")
    seen = []
    bit = OracleConfig(value_domain=(0, 1))
    assert enumerate_runs(p, bit, on_array_access=lambda a, i: seen.append((a, i))).safe
    assert seen == [("a", 1), ("a", 1)]
    # A choiceful statement runs once per combination of its choices, so every
    # read and write of it is logged once per branch, earlier expressions too.
    for body, log in [
        ("a[b[0]] = nd();", ["b0", "a0", "b0", "a0"]),
        ("(c[0] == 0) ? x = nd() : 0;", ["c0", "c0"]),
        ("a[nd(0, 1)] = b[1] + nd();", ["b1", "a0", "b1", "a0", "b1", "a1", "b1", "a1"]),
    ]:
        p = parse("int x;\nint a[2], b[2], c[2];\nmain() { " + body + " }")
        seen = []
        assert enumerate_runs(p, bit, on_array_access=lambda a, i: seen.append(f"{a}{i}")).safe
        assert seen == log, body


def test_scale_arrays_rewrites_size_constants(fig1):
    scaled = scale_arrays(fig1, 4)
    assert all(d.size == 4 for d in scaled.decls if d.size is not None)
    assert "100000" not in str(scaled.body)
    assert "99999" not in str(scaled.body)


def test_scale_arrays_rejects_ambiguity():
    # sizes 4 and 5: the constant 4 would map to both 3 (as 5-1) and 4.
    p = parse("int i;\nint a[4], b[5];\nmain() { i = 4; a[0] = 0; b[0] = 0; }")
    with pytest.raises(OracleError, match="ambiguous"):
        scale_arrays(p, 4)


def test_scale_arrays_rewrites_only_bounds_and_index_literals():
    p = parse(
        "int i, x;\nint a[2];\n"
        "main() { x = 1; for (i = 0; i < 2; i++) { a[i] = x; } a[1] = a[0] + 2; assert(x + 1 == 2); }"
    )
    expected = parse(
        "int i, x;\nint a[4];\n"
        "main() { x = 1; for (i = 0; i < 4; i++) { a[i] = x; } a[3] = a[0] + 2; assert(x + 1 == 2); }"
    )
    assert scale_arrays(p, 4) == expected


def test_scale_arrays_never_remaps_zero():
    # A 1-cell array's last index is 0: a 0 stays put, whether it is an
    # index, an init or a bound.
    p = parse("int i;\nint a[1];\nmain() { for (i = 0; i < 1; i++) { a[i] = 1; } a[0] = 0; }")
    expected = parse(
        "int i;\nint a[3];\nmain() { for (i = 0; i < 3; i++) { a[i] = 1; } a[0] = 0; }"
    )
    assert scale_arrays(p, 3) == expected


def final_states(p, cfg):
    """The final state of every completed run of ``p``, which must be safe."""
    states = []
    assert enumerate_runs(p, cfg, on_complete=states.append).safe
    return states


def test_collect_final_states_counts_choices():
    p = parse("int x;\nmain() { x = nd(0, 2); }")
    states = final_states(p, SMALL)
    assert sorted(s["x"] for s in states) == [0, 1, 2]


def test_break_and_continue_semantics():
    p = parse(
        "int i, k;\n"
        "main() { k = 0; for (i = 0; i < 10; i++) {"
        " if (i == 1) { continue; } if (i == 3) { break; } k = k + i; }"
        " assert(k == 2); assert(i == 3); }"
    )
    assert enumerate_runs(p, SMALL).safe


def test_represents_relation_fig1(fig1_small):
    # Every original cell (index c, values of a_p[c] and a_q[c]) must appear
    # in some transformed final state as (i_a_p == c, x_a_p, x_a_q). The
    # domain includes 4 so the trailing i = nd() can reach the exit value.
    cfg = OracleConfig(value_domain=(0, 4))
    (orig,) = final_states(fig1_small, cfg)
    t = transform_program(fig1_small)
    finals = final_states(t, cfg)
    for c in range(4):
        expected_p = orig[f"a_p[{c}]"]
        expected_q = orig[f"a_q[{c}]"]
        assert any(
            s["i_a_p"] == c and s["x_a_p"] == expected_p and s["x_a_q"] == expected_q
            for s in finals
        ), f"cell {c} not represented"


def test_differential_fig7_small(fig7_small):
    diff = differential_check(fig7_small, cfg=SMALL)
    assert diff.orig_verdict.safe
    assert not diff.trans_verdict.safe
    assert diff.sound
    assert diff.precise is False
    assert diff.precise_consistent is None


def test_differential_with_size_override(fig1):
    cfg = OracleConfig(value_domain=(0, 3), array_size_override=4)
    diff = differential_check(fig1, cfg=cfg)
    assert diff.orig_verdict.safe and diff.trans_verdict.safe
    assert diff.sound and diff.precise_consistent is True


def test_size_override_refuses_a_given_transformation(fig1):
    # The override scales the original and transforms the scaled program, so a
    # transformation passed in as well is refused, not silently dropped.
    cfg = OracleConfig(value_domain=(0, 1), array_size_override=2)
    with pytest.raises(ValueError, match="size override"):
        differential_check(fig1, transform_program(fig1), cfg)


def test_size_override_analyzes_the_scaled_program_once(fig1, monkeypatch):
    from arraywitness import analysis

    # Every facts build, whichever module asks for it, runs the one scan.
    calls = []
    original = analysis._scan

    def counting(root, facts):
        calls.append(root)
        return original(root, facts)

    monkeypatch.setattr(analysis, "_scan", counting)
    cfg = OracleConfig(value_domain=(0, 1), array_size_override=2)
    diff = differential_check(fig1, cfg=cfg)
    assert diff.sound and diff.precise is True
    assert len(calls) == 1


# Step totals are deterministic, so they pin the oracle's cost exactly. The
# figures were measured on the work-stack interpreter before choice-free loops
# ran as compiled closures; the closures must count the same steps.


@pytest.mark.parametrize("cells, orig_steps, trans_steps", [(2, 6_109, 4_956), (3, 130_525, 7_433)])
def test_fig5_step_totals(fig5, cells, orig_steps, trans_steps):
    original = scale_arrays(fig5, cells)
    assert enumerate_runs(original, SMALL).steps == orig_steps
    assert enumerate_runs(transform_program(original), SMALL).steps == trans_steps


def test_budget_edge_of_a_choice_free_loop():
    # Block, k = 0, for; 3 iterations of test, body block, 2 statements and
    # increment; the final test; the assert.
    p = parse(
        "int i, k;\nint a[3];\n"
        "main() { k = 0; for (i = 0; i < 3; i++) { a[i] = i; k = k + a[i]; } assert(k == 3); }"
    )
    assert enumerate_runs(p, SMALL).steps == 20
    assert enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=20)).safe
    with pytest.raises(BudgetExceeded):
        enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=19))


@pytest.mark.parametrize("observe", [False, True], ids=["unobserved", "observed"])
def test_budget_edge_of_choice_free_statements_outside_loops(observe):
    # After one choice, every kind of choice-free statement runs once per
    # value: a scalar and an array store, a chain assignment, a guarded
    # assignment, an if with a bare statement, an assert and a loop. At x == 3
    # the guarded assignment's discarded side divides by zero, as the 67th step.
    p = parse(
        "int i, k, x, y, z;\nint a[3];\n"
        "main() { x = nd(); k = x + 1; a[x % 3] = k; y = z = k * 2;"
        " (x < 3) ? y = y + 1 : 1 / (x - 3); if (x == 2) k = k + 1;"
        " assert(y == z + 1); for (i = 0; i < 3; i++) { k = k + a[i]; } }"
    )
    division = p.body.stmts[4].discard
    state = {"i": 0, "k": 4, "x": 3, "y": 8, "z": 8, "a[0]": 4, "a[1]": 0, "a[2]": 0}
    log = "a0 a0 a1 a2 a1 a0 a1 a2 a2 a0 a1 a2 a0".split() if observe else []
    seen = []
    access = (lambda a, i: seen.append(f"{a}{i}")) if observe else None
    v = enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=67), on_array_access=access)
    assert (v.steps, v.witness, seen) == (67, Trace([3], division.loc, state), log)
    seen.clear()
    with pytest.raises(BudgetExceeded):
        enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=66), on_array_access=access)
    assert seen == log


# The programs below run choice-free loops; each behaviour they pin is the
# work-stack interpreter's.


@pytest.mark.parametrize("body", ["a[i] = i;", "x = a[i];"])
def test_out_of_bounds_in_a_choice_free_loop(body):
    p = parse(f"int i, x;\nint a[2];\nmain() {{ for (i = 0; i < 3; i++) {{ {body} }} }}")
    stmt = p.body.stmts[0].body.stmts[0]
    loc = stmt.loc if body.startswith("a") else stmt.value.loc
    message = rf"^index 2 out of bounds for a\[2\] at location {loc}$"
    with pytest.raises(OracleError, match=message):
        enumerate_runs(p, SMALL)


def test_division_by_zero_in_a_choice_free_loop_keeps_the_choice():
    p = parse("int i, x, y;\nmain() { x = input(); for (i = 0; i < 2; i++) { y = 4 / x; } }")
    division = p.body.stmts[1].body.stmts[0].value
    v = enumerate_runs(p, SMALL)
    assert v.witness == Trace([0], division.loc, {"i": 0, "x": 0, "y": 0})
    assert replay_trace(p, v.witness.nd_choices, SMALL).witness == v.witness


def test_failing_assert_in_a_nested_choice_free_loop_keeps_the_outer_choices():
    p = parse(
        "int i, j, k;\n"
        "main() { for (i = 0; i < 2; i++) { k = input();"
        " for (j = 0; j < 2; j++) { assert(k + j != 2); } } }"
    )
    check = p.body.stmts[0].body.stmts[1].body.stmts[0]
    v = enumerate_runs(p, SMALL)
    assert v.witness == Trace([0, 1], check.loc, {"i": 1, "j": 1, "k": 1})
    assert replay_trace(p, v.witness.nd_choices, SMALL).witness == v.witness


def test_steps_of_a_failure_in_a_nested_choice_free_loop():
    # Only the inner loop runs as generated code; the outer one holds a loop,
    # so it runs on the work stack. The inner loop counts its steps in a local
    # and hands them back to the odometer even when its assert fails: so the
    # failure is reached at exactly 147 steps.
    p = parse(
        "int i, j, k, x;\n"
        "main() { x = input(); for (i = 0; i < 3; i++) { k = k + x;"
        " for (j = 0; j < 3; j++) { assert(k != 4); } k = k + 0; } }"
    )
    check = p.body.stmts[1].body.stmts[1].body.stmts[0]
    witness = Trace([2], check.loc, {"i": 1, "j": 0, "k": 4, "x": 2})
    before = _loop_template.cache_info()
    v = enumerate_runs(p, SMALL)
    after = _loop_template.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    assert (v.outcome, v.steps, v.witness) == ("unsafe", 147, witness)
    at_budget = enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=147))
    assert (at_budget.steps, at_budget.witness) == (147, witness)
    with pytest.raises(BudgetExceeded):
        enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=146))


# Generated loop code drops the bounds check of an access indexed by the
# loop's own iterator when the loop's range lies inside the array. None of
# these accesses is of that kind, so each keeps its check and stops at the
# first cell past the array: an index that is not the bare iterator, a step
# whose last value is past the array, an outer loop's iterator, and a loop
# that writes its own iterator (which runs on the work stack).
BOUNDS_CASES = {  # b's size, the loop, the index that fails
    "iterator-plus-one-read": (2, "for (i = 0; i < 2; i++) { x = b[i + 1]; }", 2),
    "iterator-plus-one-store": (2, "for (i = 0; i < 2; i++) { b[i + 1] = i; }", 2),
    "step-past-the-end-read": (4, "for (i = 0; i < 5; i += 2) { x = x + b[i]; }", 4),
    "step-past-the-end-store": (4, "for (i = 0; i < 5; i += 2) { b[i] = 1; }", 4),
    "outer-iterator-in-an-inner-loop": (
        2, "for (i = 0; i < 3; i++) { for (j = 0; j < 1; j++) { x = b[i]; } }", 2,
    ),
    "loop-writes-its-iterator": (2, "for (i = 0; i < 2; i++) { i = i + 2; b[i] = 1; }", 2),
}


@pytest.mark.parametrize("observe", [False, True], ids=["unobserved", "observed"])
@pytest.mark.parametrize("case", BOUNDS_CASES)
def test_bounds_checks_the_range_does_not_prove(case, observe):
    size, loop, index = BOUNDS_CASES[case]
    p = parse(f"int i, j, x;\nint b[{size}];\nmain() {{ {loop} }}")
    (loc,) = [n.loc for n in walk(p) if isinstance(n, Assign) and isinstance(n.target, ArrayAccess)
              or isinstance(n, Read) and isinstance(n.lv, ArrayAccess)]
    message = rf"^index {index} out of bounds for b\[{size}\] at location {loc}$"
    with pytest.raises(OracleError, match=message):
        enumerate_runs(p, SMALL, on_array_access=(lambda a, i: None) if observe else None)


def test_array_access_order_in_choice_free_loops():
    p = parse(
        "int i;\nint a[3], b[3];\n"
        "main() { for (i = 0; i < 3; i++) { a[i] = i; }"
        " for (i = 0; i < 3; i++) { b[a[2 - i]] = a[i];"
        " if (b[i] >= a[1]) { assert(a[b[i]] > 0); } } }"
    )
    seen = []
    assert enumerate_runs(p, SMALL, on_array_access=lambda a, i: seen.append((a, i))).safe
    assert seen == [
        ("a", 0), ("a", 1), ("a", 2),
        ("a", 2), ("a", 0), ("b", 2), ("b", 0), ("a", 1),
        ("a", 1), ("a", 1), ("b", 1), ("b", 1), ("a", 1), ("b", 1), ("a", 1),
        ("a", 0), ("a", 2), ("b", 0), ("b", 2), ("a", 1),
    ]


def test_break_and_continue_keep_their_step_total():
    # The loop holds break and continue, so it stays on the work stack: 29
    # steps complete the run and 28 do not.
    p = parse(
        "int i, k;\n"
        "main() { k = 0; for (i = 0; i < 10; i++) {"
        " if (i == 1) { continue; } if (i == 3) { break; } k = k + i; }"
        " assert(k == 2); assert(i == 3); }"
    )
    assert enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=29)).safe
    with pytest.raises(BudgetExceeded):
        enumerate_runs(p, OracleConfig(value_domain=(0, 3), max_steps=28))


# The choice semantics of target-grammar expressions at domain 0..1: the
# order in which choices are drawn, which of them an operator skips, what an
# empty nd(lo, hi) does mid-expression, and where a division fails; then the
# same operators in choice-free loops, which run as generated code. Each case
# gives its source, the final state of every completed run in order, the step
# total, and the witness as (choices, failing node, final state) where the
# failing node is "assert", "/" or "%".
BIT = OracleConfig(value_domain=(0, 1))
LOOP = "int i, j, k, x;\nmain() { x = input(); "
CHOICE_CASES = {
    # The second nd's lower bound is itself a choice; nd(2, 1) draws nothing.
    "nested-bound": (
        "int x;\nmain() { x = nd(0, 2) * 10 + nd(nd(0, 2), 1); }",
        [{"x": v} for v in (0, 1, 1, 10, 11, 11, 20, 21, 21)], 2, None,
    ),
    "ternary": (
        "int x;\nmain() { x = nd() ? nd(5, 6) : nd(7, 9); assert(x != 6); }",
        [{"x": v} for v in (7, 8, 9, 5)], 7, ([1, 6], "assert", {"x": 6}),
    ),
    "short-circuit": (
        "int x, y;\nmain() { x = nd() && nd(); y = nd() || nd(); assert(x + y < 2); }",
        [{"x": x, "y": y} for x, y in ((0, 0), (0, 1), (0, 1), (0, 0), (0, 1), (0, 1), (1, 0))],
        13, ([1, 1, 0, 1], "assert", {"x": 1, "y": 1}),
    ),
    "empty-range": ("int y;\nmain() { y = nd(2, 1) + nd(); }", [], 2, None),
    "choice-in-an-index": (
        "int x;\nint a[2];\nmain() { a[1] = 5; x = a[nd(0, 1)] + nd(0, 1); assert(x != 6); }",
        [{"x": x, "a[0]": 0, "a[1]": 5} for x in (0, 1, 5)], 7,
        ([1, 1], "assert", {"x": 6, "a[0]": 0, "a[1]": 5}),
    ),
    "division": (
        "int x;\nmain() { x = nd(0, 1) + nd(0, 1); assert(x + 4 / nd(0, 1) > 0); }",
        [], 3, ([0, 0, 0], "/", {"x": 0}),
    ),
    # The discarded side draws its choices and can fail, but assigns nothing.
    "guarded-discard": (
        "int c, x;\nmain() { c = nd(); (c == 0) ? x = nd(0, 1) : nd(0, 1) + 2 / (nd(0, 1) - 1); }",
        [{"c": 0, "x": 0}, {"c": 0, "x": 1}, {"c": 1, "x": 0}],
        4, ([1, 0, 1], "/", {"c": 1, "x": 0}),
    ),
    "loop-and": (
        LOOP + "k = 0; for (i = 0; i < 3; i++) { if (i > 0 && x == 1) { k = k + i; } }"
        " assert(k != 3); }",
        [{"i": 3, "j": 0, "k": 0, "x": 0}], 38, ([1], "assert", {"i": 3, "j": 0, "k": 3, "x": 1}),
    ),
    "loop-or": (
        LOOP + "k = 0; for (i = 0; i < 3; i++) { if (i == 2 || x == 0) { k = k + 1; } }"
        " assert(k != 3); }",
        [], 24, ([0], "assert", {"i": 3, "j": 0, "k": 3, "x": 0}),
    ),
    "loop-ternary": (
        LOOP + "k = 0; for (i = 0; i < 4; i++) { k = k + (i < 3 ? x : 0 - x); } assert(k != 2); }",
        [{"i": 4, "j": 0, "k": 0, "x": 0}], 42, ([1], "assert", {"i": 4, "j": 0, "k": 2, "x": 1}),
    ),
    # C truncates towards zero: Python's // and % would give k = -2 and k = 2.
    "loop-division": (
        LOOP + "k = 0 - 7 - x; for (i = 0; i < 2; i++) { k = k / 2; } assert(k + 1 != 0); }",
        [], 14, ([0], "assert", {"i": 2, "j": 0, "k": -1, "x": 0}),
    ),
    "loop-modulo": (
        LOOP + "k = 0 - 7 - x; for (i = 0; i < 2; i++) { k = k % (3 + i); } assert(k + 1 != 0); }",
        [], 14, ([0], "assert", {"i": 2, "j": 0, "k": -1, "x": 0}),
    ),
    "loop-modulo-by-zero": (
        LOOP + "for (i = 0; i < 3; i++) { k = 7 % (x + 1 - i); } }",
        [], 10, ([0], "%", {"i": 1, "j": 0, "k": 0, "x": 0}),
    ),
    # x = 0 would divide by zero if either guard did not short-circuit.
    "loop-guarded-division": (
        LOOP + "k = 0; for (i = 0; i < 3; i++) { if (x != 0 && 6 / x > i) { k = k + 1; }"
        " if (x == 0 || 6 / x > 9) { k = k + 2; } } assert(k != 3); }",
        [{"i": 3, "j": 0, "k": 6, "x": 0}], 52, ([1], "assert", {"i": 3, "j": 0, "k": 3, "x": 1}),
    ),
    # Each of these writes a loop's iterator inside that loop, which therefore
    # runs on the work stack: generated loop code keeps its iterator in a local.
    "loop-writes-its-iterator": (
        LOOP + "k = 0; for (i = 0; i < 6; i++) { i = i + x; k = k + 1; } assert(k != 3); }",
        [{"i": 6, "j": 0, "k": 6, "x": 0}], 55, ([1], "assert", {"i": 6, "j": 0, "k": 3, "x": 1}),
    ),
    "inner-loop-reuses-the-iterator": (
        LOOP + "k = 0; for (i = 0; i < 6; i++) { k = k + 1; for (i = 2; i < 7; i++) { k = k + x; } }"
        " assert(k != 6); }",
        [{"i": 8, "j": 0, "k": 1, "x": 0}], 62, ([1], "assert", {"i": 8, "j": 0, "k": 6, "x": 1}),
    ),
    "inner-loop-writes-the-iterator": (
        LOOP + "k = 0; for (i = 0; i < 6; i++) { for (j = 0; j < 2; j++) { i = i + x; } k = k + i; }"
        " assert(k != 7); }",
        [{"i": 6, "j": 2, "k": 15, "x": 0}], 122, ([1], "assert", {"i": 6, "j": 2, "k": 7, "x": 1}),
    ),
}


def _failing_node(p, kind: str) -> int:
    def found(n) -> bool:
        if kind == "assert":
            return isinstance(n, Assert)
        return isinstance(n, BinOp) and n.op == kind

    (loc,) = [n.loc for n in walk(p) if found(n)]
    return loc


@pytest.mark.parametrize("case", CHOICE_CASES)
def test_choice_semantics(case):
    source, completed, steps, witness = CHOICE_CASES[case]
    p = parse(source)
    states = []
    v = enumerate_runs(p, BIT, on_complete=states.append)
    assert (states, v.steps) == (completed, steps)
    if witness is None:
        assert v.safe and v.witness is None
        return
    choices, kind, final = witness
    expected = Trace(choices, _failing_node(p, kind), final)
    assert v.outcome == "unsafe" and v.witness == expected
    r = replay_trace(p, choices, BIT)
    assert r.outcome == "unsafe" and r.witness == expected


def test_replay_of_a_choice_inside_a_bound():
    p = parse(CHOICE_CASES["nested-bound"][0])
    first = next(n.loc for n in walk(p) if isinstance(n, NdRange))
    assert replay_trace(p, [2, 1, 1], BIT).safe
    with pytest.raises(OracleError) as e:
        replay_trace(p, [], BIT)
    assert str(e.value) == f"trace exhausted at choice 0 (location {first})"
    with pytest.raises(OracleError) as e:
        replay_trace(p, [5], BIT)
    assert str(e.value) == f"scripted value 5 outside [0, 2] at location {first}"


# Outside generated loop code, each operator is implemented once, by the
# compiled closures; a choice-free loop inlines its own copy as Python text.
# The two agree on every operator and operand pair in -3..3, down to C's
# truncating / and %, and fail at the same node on a zero divisor.
@pytest.mark.parametrize("op", PRECEDENCE)
def test_closures_and_generated_loop_code_agree(op):
    for a, b in itertools.product(range(-3, 4), repeat=2):
        outcomes = []
        for body in (f"x = a {op} b;", f"for (i = 0; i < 1; i++) {{ x = a {op} b; }}"):
            p = parse(f"int a, b, i, x;\nmain() {{ a = {a + 3} - 3; b = {b + 3} - 3; {body} }}")
            generated = _loop_template.cache_info()
            states = []
            v = enumerate_runs(p, BIT, on_complete=states.append)
            if body.startswith("for"):
                info = _loop_template.cache_info()
                assert info.hits + info.misses > generated.hits + generated.misses
            outcomes.append([s["x"] for s in states] if v.safe
                            else ("fails", v.witness.failing_assert == _failing_node(p, op)))
        assert outcomes[0] == outcomes[1], (a, b)
        assert (outcomes[0] == ("fails", True)) == (op in ("/", "%") and b == 0), (a, b)


def test_a_choice_shared_by_two_statements_is_drawn_in_each():
    # Parsed programs never share a node; a hand-built one may.
    for source, xy in (("x = nd() + 1; y = nd();", [(1, 0), (1, 1), (2, 0), (2, 1)]),
                       ("y = nd(); x = nd() + 1;", [(1, 0), (2, 0), (1, 1), (2, 1)])):
        p = parse(f"int x, y;\nmain() {{ {source} }}")
        shared = next(n for n in walk(p) if isinstance(n, Assign) and n.target.name == "y").value
        next(n for n in walk(p) if isinstance(n, BinOp)).lhs = shared
        states = []
        v = enumerate_runs(p, BIT, on_complete=states.append)
        assert (states, v.steps) == ([{"x": x, "y": y} for x, y in xy], 4)


def test_unknown_operator_is_refused():
    # Also in a choice-free loop, whose generated code must not inline it.
    for body in ("x = 1 - nd();", "for (i = 0; i < 2; i++) { x = 1 - i; }"):
        p = parse(f"int i, x;\nmain() {{ {body} }}")
        next(n for n in walk(p) if isinstance(n, BinOp) and n.op == "-").op = "<<"
        with pytest.raises(OracleError, match="unknown operator '<<'"):
            enumerate_runs(p, BIT)


# A loop that makes a choice runs on the work stack: one marker per iteration
# increments, tests and pushes the body. Each case is safe at domain 0..1 in
# exactly its step total, with the given number of completed runs; its unsafe
# twin, when given, has the given witness and step total.
LOOP_CASES = {
    "input-in-body": (
        "int i, k;\nint a[3];\n",
        "k = 0; for (i = 0; i < 3; i++) { a[i] = input(); k = k + a[i]; } assert(k < %s);",
        ("4", 68, 8), ("3", [1, 1, 1], 68),
    ),
    "body-without-braces": (
        "int i, k;\n",
        "k = 0; for (i = 0; i < 3; i++) k = k + input(); assert(k < %s);",
        ("4", 47, 8), None,
    ),
    "continue-and-break": (
        "int i, k;\n",
        "k = 0; for (i = 0; i < 4; i++) { k = k + input();"
        " if (k == 1) { continue; } if (k == 2) { break; } } assert(i %s);",
        ("< 5", 125, 11), ("!= 2", [0, 1, 1], 83),
    ),
    "body-writes-the-iterator": (
        "int i, k;\n",
        "for (i = 0; i < 5; i++) { k = input(); i = i + k; } assert(i < %s);",
        ("7", 112, 13), ("6", [0, 0, 0, 0, 1], 33),
    ),
    # A choice anywhere under a loop keeps that loop on the work stack.
    "choice-in-a-nested-if": (
        "int i, k;\n",
        "k = 0; for (i = 0; i < 3; i++) { if (i > 0) { if (input() == 1) { k = k + i; } } }"
        " assert(k < %s);",
        ("4", 42, 4), ("3", [1, 1], 42),
    ),
    "choice-in-a-nested-loop": (
        "int i, j, k;\n",
        "k = 0; for (i = 0; i < 2; i++) { for (j = 0; j < 2; j++) { k = k + input(); } }"
        " assert(k < %s);",
        ("5", 165, 16), ("4", [1, 1, 1, 1], 165),
    ),
    "choice-in-an-array-index": (
        "int i, k;\nint a[2];\n",
        "for (i = 0; i < 2; i++) { a[input()] = i + 1; } k = a[0] * a[1]; assert(k < %s);",
        ("3", 29, 4), ("2", [0, 1], 17),
    ),
    "choice-in-a-read-operand": (
        "int i, k;\nint a[3];\n",
        "a[2] = 4; k = 0; for (i = 0; i < 2; i++) { k = k + a[i + input()]; } assert(k < %s);",
        ("5", 27, 4), ("4", [0, 1], 17),
    ),
}


@pytest.mark.parametrize("case", LOOP_CASES)
def test_choiceful_loop_protocol(case):
    decls, body, (holds, steps, runs), twin = LOOP_CASES[case]
    p = parse(f"{decls}main() {{ {body % holds} }}")
    states = []
    _loop_template.cache_clear()
    v = enumerate_runs(p, BIT, on_complete=states.append)
    assert _loop_template.cache_info().misses == 0  # no loop ran as generated code
    assert (v.safe, v.steps, len(states)) == (True, steps, runs)
    assert enumerate_runs(p, OracleConfig(value_domain=(0, 1), max_steps=steps)).safe
    with pytest.raises(BudgetExceeded):
        enumerate_runs(p, OracleConfig(value_domain=(0, 1), max_steps=steps - 1))
    if twin is not None:
        fails, witness, steps = twin
        u = enumerate_runs(parse(f"{decls}main() {{ {body % fails} }}"), BIT)
        assert (u.outcome, u.witness.nd_choices, u.steps) == ("unsafe", witness, steps)


def test_access_log_of_compiled_loops(fig5):
    # fig5's last two loops make no choice, so they run compiled.
    seen = []
    v = enumerate_runs(scale_arrays(fig5, 2), BIT, on_array_access=lambda a, i: seen.append(f"{a}{i}"))
    assert (v.safe, v.steps, len(seen)) == (True, 413, 222)
    assert seen[:10] == "a0 b0 a1 b1 a0 b0 c0 a1 b1 c1".split()


# Loops must run at nesting the parser accepts. Generated loop code holds one
# loop, the innermost, so 45 nested loops run with 44 on the work stack; its
# ifs and expressions nest in one function, where CPython refuses 200 nested
# parentheses. Each program stays within the parser's 100 levels.


ITERATORS = [f"i{k}" for k in range(45)]
NESTED_CASES = {  # source, step total
    "45-loops": (
        f"int x, {', '.join(ITERATORS)};\nmain() {{ "
        + "".join(f"for ({i} = 0; {i} < 1; {i}++) {{ " for i in ITERATORS)
        + "x = 1; " + "} " * 45 + "assert(x == 1); }", 228,
    ),
    "46-ifs-in-a-loop": (
        "int i, x;\nmain() { for (i = 0; i < 2; i++) { " + "if (x < 9) { " * 46
        + "x = x + 1; " + "} " * 47 + "assert(x == 2); }", 196,
    ),
    "30-reads-in-a-loop": (
        "int i, x;\nint a[2];\nmain() { for (i = 0; i < 2; i++) { x = " + "a[" * 29
        + "a[i]" + " % 2]" * 29 + "; } assert(x == 0); }", 12,
    ),
}


@pytest.mark.parametrize("case", NESTED_CASES)
def test_deep_nesting_in_choice_free_loops(case):
    source, steps = NESTED_CASES[case]
    v = enumerate_runs(parse(source), BIT)
    assert (v.safe, v.steps) == (True, steps)


def test_loops_of_one_shape_share_generated_code(monkeypatch):
    # Every name and number enters generated code as an argument, so two loops
    # that differ only in them compile once, and no program name is in the code.
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr("arraywitness.oracle.compile", spy, raising=False)
    _loop_template.cache_clear()
    first = parse(
        "int alpha, total;\nint cells[3];\n"
        "main() { for (alpha = 0; alpha < 3; alpha++) {"
        " cells[alpha] = alpha * 7; total = total + cells[alpha]; } }"
    )
    second = parse(
        "int sum, beta, gamma;\nint store[5];\n"
        "main() { sum = 1; for (beta = 1; beta < 5; beta += 2) {"
        " store[beta] = beta * 4; gamma = gamma + store[beta]; } }"
    )
    assert enumerate_runs(first, BIT).safe
    misses = _loop_template.cache_info().misses
    assert enumerate_runs(second, BIT).safe
    assert (misses, _loop_template.cache_info().misses) == (1, 1)
    (source,) = sources
    for name in ("alpha", "total", "cells", "sum", "beta", "gamma", "store"):
        assert name not in source


@pytest.mark.parametrize("observe", [False, True], ids=["unobserved", "observed"])
def test_fig5_choice_free_loops_check_no_bounds(fig5, monkeypatch, observe):
    # Every access in fig5's last two loops is indexed by the loop's own
    # iterator, whose range is the arrays' cells, so their code checks none.
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr("arraywitness.oracle.compile", spy, raising=False)
    _loop_template.cache_clear()
    access = (lambda a, i: None) if observe else None
    assert enumerate_runs(scale_arrays(fig5, 2), BIT, on_array_access=access).safe
    assert len(sources) == 2
    assert not [s for s in sources if "_oob(" in s]


def test_sequential_choices_use_no_python_stack():
    # Each choice forks from the machine's own stack, so 1,000 of them in a
    # row run at the default recursion limit.
    p = parse("int x;\nmain() { " + "x = input(); " * 1000 + "assert(x == 1); }")
    v = enumerate_runs(p, BIT)
    assert (v.outcome, v.witness.nd_choices, v.steps) == ("unsafe", [0] * 1000, 1002)


@pytest.mark.parametrize("source", [
    "int x;\nmain() { x = nd(); assert(x < 2); }",
    "int i, x;\nint a[3];\nmain() { for (i = 0; i < 3; i++) { a[i] = i; x = x + a[i]; } }",
    "int x, y, z;\nint a[2];\n"
    "main() { x = nd(); y = x + 1; a[x] = y; y = z = y * 2; (x == 0) ? y = 1 : 2; assert(y > 0); }",
], ids=["choiceful", "choice-free-loop", "straight-line"])
def test_a_machine_is_freed_without_the_cyclic_collector(source):
    # Choice closures, statement closures and generated loop code hold the
    # machine's odometer, not the machine, so dropping the machine frees it
    # at once.
    p = parse(source)
    gc.disable()
    try:
        m = _Machine(p, BIT)
        m.run(_initial_state(p))
        assert m.odo.steps > 0
        freed = weakref.ref(m)
        del m
        assert freed() is None
    finally:
        gc.enable()


def test_dropped_machines_leave_no_cyclic_garbage():
    # Loop markers find their loop by type and generated code holds the
    # odometer, so no item refers to itself or to its machine: machines run and
    # dropped with the collector off leave it nothing to find.
    programs = [parse(s) for s in (
        "int i;\nint a[3];\n"
        "main() { for (i = 0; i < 3; i++) { if (nd() == 1) break; a[i] = i; } }",
        "int i;\nint a[3];\n"
        "main() { for (i = 0; i < 3; i++) { if (nd() == 1) continue; a[i] = i; } }",
        "int i, x;\nint a[3];\nmain() { for (i = 0; i < 3; i++) { a[i] = i; x = x + a[i]; } }",
        "int x, y;\nint a[2];\nmain() { x = nd(); a[x] = nd(); (x == 0) ? y = nd() : 1; "
        "assert(y < 2); }",
    )]
    gc.collect()
    gc.disable()
    try:
        for p in programs:
            m = _Machine(p, BIT)
            m.run(_initial_state(p))
            assert m.odo.steps > 0
            del m
        assert gc.collect() == 0
    finally:
        gc.enable()


_IN_LOOP = For("i", Const(0), BinOp("<", Read(Var("i")), Const(2)),
               BinOp("+", Read(Var("i")), Const(1)), Assign(Var("x"), Var("x")))


@pytest.mark.parametrize(
    "stmt, message",
    [
        (Assign(Var("x"), Var("x")), "cannot evaluate Var"),
        (Assert(Read(Const(1))), "cannot evaluate Read"),
        (_IN_LOOP, "cannot evaluate Var"),  # generated loop code leaves it to the closures
        (Assign(Const(0), Const(1)), "cannot execute Assign"),
        (TernaryAssign(Const(1), ArrayAccess("x", Const(0)), Const(1), Const(1)),
         "cannot execute TernaryAssign"),
        (Const(0), "cannot execute Const"),
    ],
    ids=["var-as-expression", "read-of-a-constant", "in-a-loop", "constant-target",
         "guarded-array-target", "expression-as-statement"],
)
def test_machine_refuses_a_node_it_has_no_case_for(stmt, message):
    p = parse("int i, x;\nmain() { x = 0; }")
    p.body.stmts[0] = stmt
    with pytest.raises(OracleError, match=f"^{message}$") as e:
        enumerate_runs(p, SMALL)
    assert type(e.value) is OracleError
