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
from arraywitness.astnodes import Assert, BinOp, NdRange, walk
from arraywitness.oracle import (
    BudgetExceeded,
    NonConstantBound,
    OracleError,
    Trace,
    _c_div,
    _c_mod,
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
    # No run reaches the loop, and no run completes: the check is at set-up.
    p = parse("int i, n;\nmain() { n = 1; if (n == 0) { for (i = 0; i < n; i++) { n = n; } } }")
    states = []
    with pytest.raises(NonConstantBound, match="non-constant bound"):
        enumerate_runs(p, SMALL, on_complete=states.append)
    assert states == []


def test_out_of_bounds_is_an_error():
    p = parse("int i;\nint a[2];\nmain() { i = 3; a[i] = 0; }")
    with pytest.raises(OracleError, match="out of bounds"):
        enumerate_runs(p, SMALL)


def test_out_of_bounds_read_is_an_error():
    p = parse("int i, x;\nint a[2];\nmain() { i = 3; x = a[i]; }")
    with pytest.raises(OracleError, match="out of bounds"):
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
# empty nd(lo, hi) does mid-expression, and where a division fails. Each case
# gives its source, the x (and y, c) of every completed run in order, the
# step total, and the witness as (choices, failing node, final state) where
# the failing node is "assert" or "/".
BIT = OracleConfig(value_domain=(0, 1))
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
}


@pytest.mark.parametrize("case", LOOP_CASES)
def test_choiceful_loop_protocol(case):
    decls, body, (holds, steps, runs), twin = LOOP_CASES[case]
    p = parse(f"{decls}main() {{ {body % holds} }}")
    states = []
    v = enumerate_runs(p, BIT, on_complete=states.append)
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
