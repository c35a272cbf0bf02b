"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single CRITERION line so a log scan shows the verdicts.
Criteria 3-5 share one fuzzing campaign (at least 500 generated programs).
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from arraywitness import (
    EmitConfig,
    OracleConfig,
    analyze_program,
    classify_program,
    differential_check,
    emit_verifiable,
    enumerate_runs,
    generate_program,
    loop_bound,
    parse,
    transform_program,
    transform_with_info,
    validate_output_grammar,
)
from arraywitness.analysis import ArrayInfo
from arraywitness.astnodes import ChainAssign, loops_of
from arraywitness.oracle import BudgetExceeded

from conftest import fixture_path, load_fixture


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_golden_transform():
    start = time.perf_counter()
    transformed = transform_program(load_fixture("fig1.c"))
    golden = load_fixture("fig1_golden.c")
    elapsed = time.perf_counter() - start
    _report(
        1,
        transformed == golden and elapsed < 1.0,
        f"golden transform structural match in {elapsed:.3f}s",
    )


def test_criterion_2_scaled_fixture_verdicts():
    cfg4 = OracleConfig(value_domain=(0, 3), array_size_override=4)
    cfg = OracleConfig(value_domain=(0, 3))
    checks = []

    start = time.perf_counter()
    d1 = differential_check(load_fixture("fig1.c"), cfg=cfg4)
    t1 = time.perf_counter() - start
    checks.append(
        d1.orig_verdict.safe and d1.trans_verdict.safe
        and d1.precise is True and t1 < 10.0
    )

    fig5 = load_fixture("fig5.c")
    start = time.perf_counter()
    d5 = differential_check(fig5, cfg=cfg4)
    t5 = time.perf_counter() - start
    scaled5 = transform_program(parse(open(fixture_path("fig5_small.c")).read()))
    chained = isinstance(scaled5.body.stmts[0], ChainAssign)
    checks.append(
        d5.orig_verdict.safe and d5.trans_verdict.safe and chained and t5 < 10.0
    )

    # fig7 mixes array sizes, so the pre-scaled fixture stands in for the
    # uniform size override.
    fig7_small = load_fixture("fig7_small.c")
    start = time.perf_counter()
    d7 = differential_check(fig7_small, cfg=cfg)
    t7 = time.perf_counter() - start
    checks.append(
        d7.orig_verdict.safe and not d7.trans_verdict.safe
        and d7.sound and d7.precise is False and t7 < 10.0
    )

    _report(
        2,
        all(checks),
        "scaled fixtures: fig1 safe/safe precise "
        f"({t1:.2f}s), fig5 safe/safe chained init ({t5:.2f}s), "
        f"fig7 safe/unsafe imprecise ({t7:.2f}s)",
    )


@dataclass
class FuzzCampaign:
    results: list
    conformant: int
    elapsed: float
    over_budget: list  # seeds dropped because their enumeration hit the step budget


# The transforms of these generated programs need more than 400 k steps.
KNOWN_OVER_BUDGET = {61, 182, 286, 476}


@pytest.fixture(scope="module")
def fuzz_campaign():
    cfg = OracleConfig(value_domain=(0, 2), max_steps=400_000)
    results, over_budget = [], []
    conformant = 0
    start = time.perf_counter()
    seed = 0
    while len(results) < 500 and seed < 700:
        p = generate_program(seed)
        seed += 1
        info = transform_with_info(p)
        if validate_output_grammar(info.program, info.witness_indices).conformant:
            conformant += 1
        try:
            diff = differential_check(p, info.program, cfg)
        except BudgetExceeded:
            over_budget.append(seed - 1)
            continue
        results.append((seed - 1, diff))
    return FuzzCampaign(results, conformant, time.perf_counter() - start, over_budget)


def test_criterion_3_soundness_fuzz(fuzz_campaign):
    c = fuzz_campaign
    unsound = [seed for seed, diff in c.results if not diff.sound]
    unexpected = set(c.over_budget) - KNOWN_OVER_BUDGET
    ok = len(c.results) >= 500 and not unsound and not unexpected and c.elapsed < 300.0
    _report(
        3,
        ok,
        f"{len(c.results)} fuzzed programs, {len(unsound)} unsound, "
        f"dropped over the step budget: seeds {c.over_budget}, {c.elapsed:.1f}s",
    )


def test_criterion_4_precision_fuzz(fuzz_campaign):
    precise = [(s, d) for s, d in fuzz_campaign.results if d.precise]
    inconsistent = [s for s, d in precise if not d.precise_consistent]
    ok = len(precise) > 0 and not inconsistent
    _report(
        4,
        ok,
        f"{len(precise)} precise programs, {len(inconsistent)} with "
        "mismatched verdicts",
    )


# Verdicts, witness choices and failing locations, recorded by
# tools/verdict_golden.py; step totals are left out, as a reduced enumeration
# may change them while verdicts must not.
GOLDEN = json.loads(fixture_path("verdicts.json").read_text())


def _outcome(v) -> list:
    w = v.witness
    return [v.outcome] if w is None else [v.outcome, w.nd_choices, w.failing_assert]


def test_fixture_verdicts_match_the_golden():
    seen = {}
    for name in ("fig1_small", "fig5_small", "fig7_small"):
        for hi in (1, 2):
            p, cfg = load_fixture(f"{name}.c"), OracleConfig(value_domain=(0, hi))
            seen[f"{name} 0..{hi}"] = {
                "original": _outcome(enumerate_runs(p, cfg)),
                "transformed": _outcome(enumerate_runs(transform_program(p), cfg)),
            }
    assert seen == GOLDEN["fixtures"]


def test_oracle_outputs_match_the_pinned_digest():
    # tools/oracle_digest.py hashes the steps, every completed run's state, the
    # access logs and the witness replays of the fixtures and generated seeds
    # 0-19, so a change to anything the oracle reports changes this value. The
    # full 500-seed digest is run by hand (README).
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "oracle_digest.py"
    proc = subprocess.run([sys.executable, str(tool), "--seeds", "20"], capture_output=True,
                          text=True, timeout=300, check=True)
    assert proc.stdout.strip() == (
        "6cda5fa50750da1f93fddb659b34773403d40906f89a5818a86cd16d7582d211")


def test_oracle_digest_per_case_lines_name_each_case(monkeypatch, capsys):
    # --per-case prints each case's label, its value domain and the sha256 of
    # that case alone, then the same total digest as without the flag.
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "oracle_digest.py"
    spec = importlib.util.spec_from_file_location("oracle_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    cfg = OracleConfig(value_domain=(0, 1))
    cases = [("safe", lambda: parse("int x;\nmain() { x = nd(); }"), cfg),
             ("unsafe", lambda: parse("int x;\nmain() { x = nd(); assert(x == 0); }"), cfg)]

    def digest(selected, *flags):
        monkeypatch.setattr(tool, "programs", lambda seeds: iter(selected))
        assert tool.main(list(flags)) == 0
        return capsys.readouterr().out.splitlines()

    *lines, total = digest(cases, "--per-case")
    assert [total] == digest(cases)
    assert lines == [f"{case[0]} at 0..1: {digest([case])[0]}" for case in cases]


def test_fuzz_verdicts_match_the_golden(fuzz_campaign):
    # The campaign's own results: nothing is enumerated a second time.
    seen = {str(seed): None for seed in fuzz_campaign.over_budget}
    for seed, diff in fuzz_campaign.results:
        seen[str(seed)] = {"original": _outcome(diff.orig_verdict),
                           "transformed": _outcome(diff.trans_verdict)}
    assert seen == GOLDEN["seeds"]


def test_criterion_5_output_conformance(fuzz_campaign):
    fixture_ok = all(
        validate_output_grammar(
            (r := transform_with_info(load_fixture(n))).program, r.witness_indices
        ).conformant
        for n in ("fig1.c", "fig5.c", "fig7.c")
    )
    ok = fixture_ok and fuzz_campaign.conformant >= len(fuzz_campaign.results)
    _report(
        5,
        ok,
        f"{fuzz_campaign.conformant} conformant transformed programs "
        "(fixtures included)",
    )


def test_criterion_6_analysis_unit_facts():
    fig1 = load_fixture("fig1.c")
    fig7 = load_fixture("fig7.c")
    facts = [
        ArrayInfo("a", 100000, "x_a", "i_a").lastof == 99999,
        analyze_program(fig1).summaries[loops_of(fig1)[0].loc].defs == {"k"},
        all(loop_bound(l) == range(0, 50000) for l in loops_of(fig7)),
        all(s.full_access for s in analyze_program(fig1).summaries.values()),
        not any(s.full_access for s in analyze_program(fig7).summaries.values()),
        classify_program(fig1) is True,
        classify_program(fig7) is False,
    ]
    _report(6, all(facts), "lastof/defs/loop_bound/full_access unit facts")


def test_criterion_7_bmc_pass_through(tmp_path):
    bmc = os.environ.get("BMC_BIN")
    if not bmc or shutil.which(bmc) is None:
        print("CRITERION 7: SKIP - BMC_BIN not set; pass-through untested")
        pytest.skip("BMC_BIN not configured")
    out = tmp_path / "fig1_transformed.c"
    text = emit_verifiable(
        transform_program(load_fixture("fig1.c")), EmitConfig("cbmc")
    )
    out.write_text(text)
    proc = subprocess.run([bmc, str(out)], capture_output=True, timeout=60)
    _report(7, proc.returncode == 0, f"checker exit {proc.returncode} on "
            "full-scale transformed program")
