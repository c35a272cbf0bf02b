from arraywitness import analyze_program, loop_bound, parse
from arraywitness.analysis import ArrayInfo
from arraywitness.astnodes import loops_of


def summaries(p):
    """Each loop's summary, in program order."""
    return list(analyze_program(p).summaries.values())


def test_lastof_values():
    assert ArrayInfo("a", 100000, "x_a", "i_a").lastof == 99999
    assert ArrayInfo("a", 4, "x_a", "i_a").lastof == 3
    assert ArrayInfo("a", 1, "x_a", "i_a").lastof == 0


def test_collect_arrays_names(fig1):
    arrays = analyze_program(fig1).arrays
    assert [(a.name, a.size) for a in arrays] == [("a_p", 100000), ("a_q", 100000)]
    assert arrays[0].witness_var == "x_a_p"
    assert arrays[0].witness_idx == "i_a_p"


def test_collect_arrays_renames_on_collision():
    p = parse("int a[4];\nint x_a, i;\nmain() { for (i = 0; i < 4; i++) { a[i] = 0; } }")
    (info,) = analyze_program(p).arrays
    assert info.witness_var != "x_a"
    assert info.witness_var.startswith("x_a")


def test_fig1_first_loop_defs(fig1):
    assert summaries(fig1)[0].defs == {"k"}


def test_iterator_never_in_defs(fig1, fig5, fig7):
    for p in (fig1, fig5, fig7):
        facts = analyze_program(p)
        for loop in loops_of(p):
            assert loop.iterator not in facts.summaries[loop.loc].defs


def test_defs_include_non_iterator_array_writes(fig7):
    # a is written at i + 50000, so it stays in defs; b is only written at
    # the iterator index and is covered by the replayed body.
    assert summaries(fig7)[0].defs == {"a", "x", "y"}


def test_const_rhs_dominating_def_excluded():
    p = parse(
        "int i, k;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { k = 2; a[i] = k; } }"
    )
    assert "k" not in summaries(p)[0].defs


def test_const_rhs_after_use_still_counts():
    p = parse(
        "int i, k;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { a[i] = k; k = 2; } }"
    )
    assert "k" in summaries(p)[0].defs


def test_fig7_loop_bounds(fig7):
    for loop in loops_of(fig7):
        assert loop_bound(loop) == range(0, 50000)


def test_loop_bound_non_unit_step():
    p = parse("int i;\nmain() { for (i = 1; i < 10; i += 3) { i = i; } }")
    assert loop_bound(loops_of(p)[0]) == range(1, 8, 3)  # 1, 4, 7


def test_loop_bound_empty():
    p = parse("int i;\nmain() { for (i = 5; i < 2; i++) { i = i; } }")
    assert loop_bound(loops_of(p)[0]) == range(0)


def test_loop_bound_unknown():
    p = parse("int i, n;\nmain() { for (i = 0; i < n; i++) { i = i; } }")
    assert loop_bound(loops_of(p)[0]) is None


def test_fig1_loops_full_access(fig1):
    assert all(s.full_access for s in summaries(fig1))


def test_fig5_loops_full_access(fig5):
    assert all(s.full_access for s in summaries(fig5))


def test_fig7_loops_not_full_access(fig7):
    assert not any(s.full_access for s in summaries(fig7))


def test_full_access_requires_iterator_index():
    p = parse(
        "int i;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { a[0] = i; } }"
    )
    assert not summaries(p)[0].full_access


def test_full_access_requires_matching_sizes():
    p = parse(
        "int i;\nint a[4], b[2];\n"
        "main() { for (i = 0; i < 4; i++) { a[i] = 0; b[0] = 0; } }"
    )
    assert not summaries(p)[0].full_access


def test_full_access_false_without_arrays():
    p = parse("int i, k;\nmain() { for (i = 0; i < 4; i++) { k = i; } }")
    assert not summaries(p)[0].full_access


def test_analyze_program_summaries(fig7):
    facts = analyze_program(fig7)
    assert len(facts.arrays) == 2
    assert len(facts.summaries) == 2
    for s in facts.summaries.values():
        assert s.bound == range(0, 50000)
        assert not s.full_access


def test_summary_break_flag():
    p = parse(
        "int i;\nint a[4];\n"
        "main() { for (i = 0; i < 4; i++) { a[i] = 0; if (i == 2) { break; } } }"
    )
    (s,) = analyze_program(p).summaries.values()
    assert s.has_break_or_continue
