import json

import pytest

from arraywitness import (
    analyze_program,
    astnodes,
    classify,
    classify_all,
    classify_program,
    dependence_closure,
    emit_report,
    emit_verifiable,
    generate_program,
    parse,
    precision,
    print_program,
    transform_with_info,
)
from arraywitness.astnodes import asserts_of, loops_of

from conftest import fixture_path, load_fixture

FIXTURES = ("fig1.c", "fig1_small.c", "fig5.c", "fig5_small.c", "fig7.c", "fig7_small.c")


def _only_assert_loc(p):
    (a,) = asserts_of(p)
    return a.loc


def test_fig1_closure(fig1):
    closure = dependence_closure(fig1, _only_assert_loc(fig1))
    assert closure.v_imp == {"i"}
    assert len(closure.e_imp) == 3
    assert closure.s_def == {loops_of(fig1)[0].loc}


def test_fig1_is_precise(fig1):
    assert classify_program(fig1) is True
    verdict = classify(fig1, _only_assert_loc(fig1))
    assert verdict.precise and not verdict.violated_rules


def test_fig5_is_precise(fig5):
    assert classify_program(fig5) is True


def test_fig7_is_imprecise_by_l1(fig7):
    verdict = classify(fig7, _only_assert_loc(fig7))
    assert not verdict.precise
    assert "l1" in {v.rule for v in verdict.violated_rules}


def test_fig7_defining_loops(fig7):
    closure = dependence_closure(fig7, _only_assert_loc(fig7))
    assert closure.s_def == {loops_of(fig7)[0].loc}


def test_trivial_assertion_has_empty_closure():
    p = parse("int i;\nint a[4];\nmain() { for (i = 0; i < 4; i++) { a[i] = 0; assert(0 == 0); } }")
    closure = dependence_closure(p, _only_assert_loc(p))
    assert closure.v_imp == set()
    assert closure.e_imp == set()
    assert closure.s_def == set()
    assert classify_program(p) is True


def test_assertion_outside_loop_is_imprecise():
    p = parse("int i;\nint a[4];\nmain() { for (i = 0; i < 4; i++) { a[i] = i; } assert(a[0] == 0); }")
    (verdict,) = classify_all(p)
    assert not verdict.precise
    assert [(r.rule, r.loc) for r in verdict.violated_rules] == [("l1", verdict.assertion_loc)]
    assert classify(p, verdict.assertion_loc) == verdict


def test_no_assertion_yields_none():
    p = parse("int i;\nint a[4];\nmain() { for (i = 0; i < 4; i++) { a[i] = 0; } }")
    assert classify_program(p) is None
    assert classify_all(p) == []


def test_partial_access_assertion_loop_violates_l1():
    p = parse(
        "int i;\nint a[4];\n"
        "main() { for (i = 0; i < 2; i++) { a[i] = 1; assert(a[i] == 1); } }"
    )
    verdict = classify(p, _only_assert_loc(p))
    assert not verdict.precise
    assert {v.rule for v in verdict.violated_rules} == {"l1"}


def test_non_iterator_index_violates_a2():
    p = parse(
        "int i;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { a[i] = 1; assert(a[0] == a[i]); } }"
    )
    verdict = classify(p, _only_assert_loc(p))
    assert "a2" in {v.rule for v in verdict.violated_rules}


def test_scalar_defined_by_loop_violates_s4():
    p = parse(
        "int i, k;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { k = k + 1; a[i] = 0; assert(k < 9); } }"
    )
    verdict = classify(p, _only_assert_loc(p))
    assert "s4" in {v.rule for v in verdict.violated_rules}


def test_iterator_redefinition_relaxation():
    # k is re-defined from the iterator before every use: still precise.
    p = parse(
        "int i, k;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { k = i; a[i] = k; assert(a[i] == k); } }"
    )
    assert classify(p, _only_assert_loc(p)).precise


@pytest.mark.parametrize("orelse, precise", [(" else { k = 1; }", True), ("", False)])
def test_definition_before_use_merges_both_branches(orelse, precise):
    # k is re-defined from a constant on both branches, or on one only: a
    # missing else leaves k carried from the previous iteration.
    p = parse(
        "int c, i, k;\nint a[4];\n"
        "main() { c = input(); for (i = 0; i < 4; i++) { "
        f"if (c > 0) {{ k = 0; }}{orelse} a[i] = k; assert(a[i] == k); }} }}"
    )
    verdict = classify(p, _only_assert_loc(p))
    assert verdict.precise is precise
    rules = {v.rule for v in verdict.violated_rules}
    assert rules == (set() if precise else {"s4", "d6"})


def test_d6_violation_on_carried_scalar_in_write():
    p = parse(
        "int i, k;\nint a[4];\n"
        "main() { k = 0; for (i = 0; i < 4; i++) { a[i] = k; k = k + 1; assert(a[i] < 9); } }"
    )
    verdict = classify(p, _only_assert_loc(p))
    assert "d6" in {v.rule for v in verdict.violated_rules}


def test_verdict_json_shape(fig7):
    verdict = classify(fig7, _only_assert_loc(fig7))
    (doc,) = json.loads(emit_report(analyze_program(fig7), [verdict]))["assertions"]
    assert set(doc) == {"location", "precise", "violated_rules"}
    assert doc["location"] == verdict.assertion_loc and doc["precise"] is False
    assert doc["violated_rules"]
    for v in doc["violated_rules"]:
        assert set(v) == {"rule", "location", "note"}


@pytest.mark.parametrize("where", ["statement", "expression", "unknown"])
def test_classify_rejects_non_assert_location(fig1, where):
    loc = {
        "statement": fig1.body.stmts[0].loc,
        "expression": fig1.body.stmts[0].init.loc,
        "unknown": 99999,
    }[where]
    with pytest.raises(ValueError, match="not an assertion"):
        classify(fig1, loc)
    with pytest.raises(ValueError, match="not an assertion"):
        dependence_closure(fig1, loc)


def _wide_program(k: int, n: int = 100000):
    """K independent fig1 kernels, each with its own arrays, scalar and
    assertion; only the iterator is shared."""
    decls = ", ".join(f"a_p{j}[{n}], a_q{j}[{n}]" for j in range(k))
    scalars = ", ".join(f"k{j}" for j in range(k))
    body = "".join(
        f"for (i = 0; i < {n}; i++) {{ k{j} = i; a_p{j}[i] = k{j}; "
        f"a_q{j}[i] = k{j} * k{j}; }}\n"
        f"for (i = 0; i < {n}; i++) {{ assert(a_q{j}[i] == a_p{j}[i] * a_p{j}[i]); }}\n"
        for j in range(k)
    )
    return parse(f"int {decls};\nint i, {scalars};\nmain() {{\n{body}}}\n")


def _count_expansions(monkeypatch) -> list[int]:
    # walk and assign_locs expand nodes only through the child table, so
    # counting there counts every visit to an inner node.
    visits = [0]
    for cls, expand in list(astnodes._CHILDREN.items()):

        def counted(node, expand=expand):
            visits[0] += 1
            return expand(node)

        monkeypatch.setitem(astnodes._CHILDREN, cls, counted)
    return visits


def test_classify_all_work_grows_linearly_with_assertions(monkeypatch):
    # Counts AST child expansions, a deterministic unit of work: linear
    # growth gives 4x from K = 8 to K = 32, a per-assertion walk of the whole
    # program about 16x.
    visits = _count_expansions(monkeypatch)

    def work(k: int) -> int:
        p = _wide_program(k)
        visits[0] = 0
        verdicts = classify_all(p)
        assert len(verdicts) == k and all(v.precise for v in verdicts)
        return visits[0]

    assert work(32) <= 5 * work(8)


def test_transform_work_grows_linearly_with_assertions(monkeypatch):
    visits = _count_expansions(monkeypatch)

    def work(k: int) -> int:
        p = _wide_program(k)
        visits[0] = 0
        transform_with_info(p)
        return visits[0]

    assert work(32) <= 5 * work(8)


def _inner_nodes(p) -> int:
    return sum(1 for n in astnodes.walk(p) if type(n) in astnodes._CHILDREN)


@pytest.mark.parametrize("name", ["fig1.c", "fig5.c", "fig7.c", "wide-8"])
def test_parse_and_transform_expand_each_node_about_once(monkeypatch, name):
    # parse numbers the tree and bounds its depth in one walk. The transform
    # builds new nodes, so it needs no copy of its input, and it checks the
    # source grammar and prunes as it builds: one walk numbers its output, and
    # the pruning rule looks ahead a little. The emitter checks the output
    # grammar in one walk and prints without the child table, drawing each
    # nd(lo, hi) and noting input() where the printer meets it.
    text = print_program(_wide_program(8)) if name == "wide-8" else fixture_path(name).read_text()
    program = parse(text)
    facts = analyze_program(program)
    inner = _inner_nodes(program)
    visits = _count_expansions(monkeypatch)
    assert parse(text) == program
    assert visits[0] <= inner
    visits[0] = 0
    out = transform_with_info(program, facts).program
    work = visits[0]
    assert work < 1.25 * _inner_nodes(out)
    visits[0] = 0
    emit_verifiable(out)
    assert visits[0] < 1.25 * _inner_nodes(out)


def _ladder(d: int):
    """d nested loops, each writing one cell of its own array."""
    iterators = ", ".join(f"i{j}" for j in range(d))
    arrays = ", ".join(f"a{j}[4]" for j in range(d))
    body = ""
    for j in reversed(range(d)):
        body = f"for (i{j} = 0; i{j} < 4; i{j}++) {{ a{j}[i{j}] = {j}; {body}}}"
    return parse(f"int {iterators};\nint {arrays};\nmain() {{ {body} }}\n")


def test_analysis_work_per_node_is_flat_in_nesting_depth(monkeypatch):
    # A walk of each loop body on its own visits a node once per enclosing
    # loop, so its work per node grows with the depth: 2.5 expansions per
    # node at d = 2 and 16.5 at d = 16. One pass stays at 0.45.
    visits = _count_expansions(monkeypatch)

    def per_node(d: int) -> float:
        p = _ladder(d)
        nodes = sum(1 for _ in astnodes.walk(p))
        visits[0] = 0
        assert len(analyze_program(p).summaries) == d
        return visits[0] / nodes

    base = per_node(2)
    for d in (4, 8, 16):
        assert per_node(d) <= 1.25 * base, d


@pytest.mark.parametrize(
    "program", [_ladder(d) for d in (1, 4, 8)] + [_wide_program(k) for k in (1, 8)],
    ids=["ladder-1", "ladder-4", "ladder-8", "wide-1", "wide-8"],
)
def test_analysis_expands_each_inner_node_at_most_once(monkeypatch, program):
    # One scan fills the loop summaries and every per-statement table; a
    # second walk of the program would expand each inner node again.
    nodes = list(astnodes.walk(program))
    inner = sum(1 for n in nodes if type(n) in astnodes._CHILDREN)
    stmts = [n for n in nodes if type(n) in (astnodes.Assign, astnodes.Assert, astnodes.For)]
    visits = _count_expansions(monkeypatch)
    facts = analyze_program(program)
    assert visits[0] <= inner
    assert list(facts.loops) == [id(n) for n in stmts]
    assert list(facts.asserts.values()) == [n for n in stmts if type(n) is astnodes.Assert]


def _programs():
    for name in FIXTURES:
        yield name, load_fixture(name)
    for seed in range(200):
        yield f"seed {seed}", generate_program(seed)


def test_batch_and_single_classification_agree(monkeypatch):
    used = []
    original = precision._closure

    def recording(facts, loc):
        used.append(original(facts, loc))
        return used[-1]

    monkeypatch.setattr(precision, "_closure", recording)
    for label, p in _programs():
        verdicts = classify_all(p)
        expected = all(v.precise for v in verdicts) if verdicts else None
        assert classify_program(p) == expected, label
        assert [v.assertion_loc for v in verdicts] == [a.loc for a in asserts_of(p)]
        for a, batch in zip(asserts_of(p), verdicts):
            assert batch == classify(p, a.loc), label
            if used[-1] is None:  # outside every loop
                assert [r.rule for r in batch.violated_rules] == ["l1"], label
                with pytest.raises(ValueError, match="not inside a loop"):
                    dependence_closure(p, a.loc)
                continue
            _, v_imp, e_imp, s_def = used[-1]
            closure = dependence_closure(p, a.loc)
            assert closure.v_imp == v_imp, label
            assert closure.e_imp == {acc.loc for acc in e_imp}, label
            assert closure.s_def == {loop.loc for loop in s_def}, label
