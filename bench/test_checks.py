"""Tests of the benchmark itself: every check must reject a planted wrong
answer and accept the right one, and the tracer must record what it claims.

Run from the repository root with ``python -m pytest bench``; they take a
few seconds.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import arraywitness as aw  # noqa: E402
import arraywitness.cli  # noqa: E402,F401
from arraywitness.oracle import DifferentialResult, Trace, Verdict  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def fixture(name):
    return aw.parse((FIXTURES / name).read_text())


def emitted(name, style="cbmc"):
    return aw.emit_verifiable(aw.transform_program(fixture(name)), aw.EmitConfig(style))


def diff(orig_safe, trans_safe, precise):
    def verdict(safe):
        return Verdict("safe") if safe else Verdict("unsafe", Trace([1], 7, {}))

    return DifferentialResult(verdict(orig_safe), verdict(trans_safe), precise)


def test_emitted_text_accepts_real_output_in_every_dialect():
    for style in ("cbmc", "svcomp", "stub"):
        for name in ("fig1.c", "fig5.c", "fig7.c"):
            assert checks.check_emitted_text(name, emitted(name, style)) == []


def test_emitted_text_rejects_array_and_loops():
    good = emitted("fig1.c")
    assert checks.check_emitted_text("x", good.replace("int k;", "int k[2];"))
    assert checks.check_emitted_text("x", good + "while (1) {}\n")
    assert checks.check_emitted_text("x", good + "goto end;\n")
    assert checks.check_emitted_text("x", good + "for (i = 0; i < 2; i++) ;\n")
    assert checks.check_emitted_text("x", good + "for (once = 0; once < 1; once++)\n") == []


def test_numeral_check_rejects_a_shape_change():
    small = emitted("fig1.c")
    big = small.replace("99999", "999999999")
    assert checks.check_differs_only_in_numerals("fig1", {1: small, 2: big}) == []
    assert checks.check_differs_only_in_numerals("fig1", {1: small, 2: big.replace("*", "+")})


def test_precision_check_rejects_a_flipped_verdict():
    out = "assertion at location 30: precise\n"
    assert checks.check_precision("fig1", out, [True]) == []
    assert checks.check_precision("fig1", out.replace("precise", "imprecise (s4)"), [True])
    assert checks.check_precision("wide2", out, [True, True])


def test_golden_check_rejects_another_program():
    golden = fixture("fig1_golden.c")
    text = emitted("fig1.c")
    assert checks.check_golden(aw.parse(aw.strip_scaffolding(text)), golden) == []
    assert checks.check_golden(aw.parse(aw.strip_scaffolding(emitted("fig5.c"))), golden)


def test_exhaustive_check_rejects_flipped_verdicts():
    assert checks.check_exhaustive("fig1", diff(True, True, True)) == []
    assert checks.check_exhaustive("fig7_small", diff(True, False, False)) == []
    assert checks.check_exhaustive("fig7_small", diff(True, True, False))
    assert checks.check_exhaustive("fig7_small", diff(False, False, False))
    assert checks.check_exhaustive("fig1", diff(True, True, False))
    assert checks.check_exhaustive("fig5", diff(True, False, True))


def test_census_check_rejects_off_by_one():
    assert checks.check_census("fig5", 65536) == []
    assert checks.check_census("fig5", 65535)
    assert checks.check_census("fig7_small", 17)
    assert checks.check_census("fig1", 0)


def test_replay_check_rejects_a_witness_that_does_not_replay():
    witness = Trace([2, 0], 12, {})
    assert checks.check_replay("w", witness, Verdict("unsafe", Trace([2, 0], 12, {}))) == []
    assert checks.check_replay("w", witness, Verdict("safe"))
    assert checks.check_replay("w", witness, Verdict("unsafe", Trace([2, 0], 13, {})))


def test_replay_check_on_a_real_witness():
    program = aw.transform_program(fixture("fig7_small.c"))
    verdict = aw.enumerate_runs(program)
    replayed = aw.replay_trace(program, verdict.witness.nd_choices)
    assert checks.check_replay("fig7_small", verdict.witness, replayed) == []


def test_fuzz_pair_check_rejects_unsound_inconsistent_and_array_output():
    p = aw.generate_program(3)
    t = aw.transform_program(p)
    assert checks.check_fuzz_pair(3, diff(True, True, True), t, True) == []
    assert checks.check_fuzz_pair(3, diff(False, True, None), t, True)
    assert checks.check_fuzz_pair(3, diff(True, False, True), t, True)
    assert checks.check_fuzz_pair(3, diff(True, True, True), t, False)
    assert checks.check_fuzz_pair(3, diff(True, True, True), p, True)


def test_ladder_and_wide_inputs_are_what_the_readme_says():
    fig7 = (FIXTURES / "fig7.c").read_text()
    scaled = aw.parse(workloads.scale_fixture(fig7, 1000))
    assert [d.size for d in scaled.decls if d.kind == aw.astnodes.ARRAY_INT] == [1000, 500]
    wide = aw.parse(workloads.wide_program(3))
    assert [v.precise for v in aw.classify_all(wide)] == [True, True, True]


def test_tracer_records_nested_spans_and_census_then_uninstalls():
    original = aw.cli.parse
    program = fixture("fig7_small.c")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert aw.cli.parse is not original
        with tracer.span("bench.case", case="fig7_small"):
            aw.differential_check(program)
    finally:
        tracer.uninstall()
    assert aw.cli.parse is original
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["bench.case", "oracle.differential_check"]
    orig = next(s for s in tracer.spans if s.attrs.get("role") == "orig")
    assert orig.attrs["runs"] == 16
    assert tracer.ancestor(orig, "bench.case").attrs["case"] == "fig7_small"
    own = tracing.self_times(tracer)
    assert abs(sum(own) - tracer.spans[0].duration) < 1e-6
    assert all(t >= 0 for t in own)


def test_failure_check_accepts_only_a_listed_seed_failing_its_listed_way():
    known = workloads.Fuzz.known_failures
    budget = ("BudgetExceeded", "BudgetExceeded: 400000 steps")
    replay = ("replay", "replay: trace exhausted at choice 0")
    lines, problems = checks.check_failures({"seed 61": budget, "seed 278": replay}, known)
    assert problems == [] and all("[known fault:" in line for line in lines)
    # A listed seed failing for another reason, and an unlisted seed.
    assert checks.check_failures({"seed 278": budget}, known)[1]
    assert checks.check_failures({"seed 61": replay}, known)[1]
    assert checks.check_failures({"seed 3": budget}, known)[1]
