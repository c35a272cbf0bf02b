import json
import shutil
import signal
import subprocess

import jsonschema
import pytest

from arraywitness import (
    EmitConfig,
    analyze_program,
    classify_all,
    emit_report,
    emit_verifiable,
    generate_program,
    parse,
    print_program,
    strip_scaffolding,
    transform_with_info,
    validate_output_grammar,
)
from arraywitness.astnodes import For, walk
from arraywitness.emit import EmitError, ND_STYLES, REPORT_SCHEMA

from conftest import load_fixture


# Six loops that are not full-access draw twelve nd(lo, hi) temporaries, so
# __nd_1 is a prefix of __nd_10. Zero-trip loops draw their iterator from an
# empty range.
_SIX_LOOPS = "int i, x;\nint a[4];\nmain() {\n" + (
    "  for (i = 0; i < 3; i++) { a[i] = x; }\n" * 6) + "}\n"
_EMPTY_LOOPS = (
    "int i, x;\nint a[4];\nmain() {\n"
    "  for (i = 0; i < 0; i++) { a[i] = x; }\n"
    "  for (i = 2; i < 1; i++) { x = a[i]; }\n}\n"
)
# Already in the output grammar, so it is emitted as parsed. The inner range
# is a bound of the outer one, so its temporary is drawn first, as the oracle
# draws it.
_NESTED_RANGE = "int x;\nmain() { x = nd(nd(0, 1), 2); assert(x < 2); }"


def _output_programs(name: str):
    # Generated programs 0-199 bring chained and guarded assignments,
    # single-trip loops, nd(lo, hi) drawn inside nested blocks, and
    # conditionals nested in the then-branch of an if/else.
    if name == "nested-range":
        return [parse(_NESTED_RANGE)]
    if name == "generated":
        sources = [generate_program(seed) for seed in range(200)]
    elif name == "six-loops":
        sources = [parse(_SIX_LOOPS)]
    elif name == "empty-loops":
        sources = [parse(_EMPTY_LOOPS)]
    else:
        sources = [load_fixture(name)]
    return [transform_with_info(p).program for p in sources]


@pytest.mark.parametrize("style", ND_STYLES)
@pytest.mark.parametrize(
    "name",
    ["fig1.c", "fig5.c", "fig7.c", "generated", "six-loops", "empty-loops", "nested-range"],
)
def test_strip_round_trip(style, name):
    for program in _output_programs(name):
        assert parse(print_program(program)) == program
        text = emit_verifiable(program, EmitConfig(style))
        assert parse(strip_scaffolding(text)) == program


def test_reparsed_single_trip_transforms_conform_and_emit_the_same():
    # Single-trip loops are a shape of the tree, so the printed and reparsed
    # copy of a transform that keeps one is as conformant as the transform.
    kept = 0
    for seed in range(300):
        result = transform_with_info(generate_program(seed))
        if not any(isinstance(n, For) for n in walk(result.program)):
            continue
        kept += 1
        copy = parse(print_program(result.program))
        assert validate_output_grammar(copy, result.witness_indices).conformant, seed
        assert emit_verifiable(copy) == emit_verifiable(result.program), seed
    assert kept == 24


def test_markers_and_style_calls(fig1):
    result = transform_with_info(fig1)
    cbmc = emit_verifiable(result.program, EmitConfig("cbmc"))
    assert "/* --- begin program --- */" in cbmc
    assert "nondet_int()" in cbmc and "__CPROVER_assume" in cbmc
    svcomp = emit_verifiable(result.program, EmitConfig("svcomp"))
    assert "__VERIFIER_nondet_int()" in svcomp and "__VERIFIER_assume" in svcomp


def test_emitted_c_has_no_arrays_or_loops(fig7):
    result = transform_with_info(fig7)
    text = emit_verifiable(result.program, EmitConfig("cbmc"))
    region = text.split("begin program")[1]
    assert "[" not in region
    assert "for (" not in region  # fig7 needs no single-trip loop


def test_emit_rejects_nonconformant_program(fig1):
    with pytest.raises(EmitError):
        emit_verifiable(fig1, EmitConfig("cbmc"))


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not available")
def test_stub_style_compiles_and_runs(tmp_path, fig1_small):
    result = transform_with_info(fig1_small)
    src = tmp_path / "t.c"
    src.write_text(emit_verifiable(result.program, EmitConfig("stub")))
    exe = tmp_path / "t"
    subprocess.run(["gcc", "-std=c99", "-o", str(exe), str(src)], check=True)
    # i_a = 0; every unranged nd() reads 0 as well.
    proc = subprocess.run(
        [str(exe)], env={"ND_CHOICES": "0,0,0,0,0,0,0,0"}, capture_output=True
    )
    assert proc.returncode == 0


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not available")
def test_stub_draws_a_nested_range_inner_first(tmp_path):
    src = tmp_path / "t.c"
    src.write_text(emit_verifiable(parse(_NESTED_RANGE), EmitConfig("stub")))
    exe = tmp_path / "t"
    subprocess.run(["gcc", "-std=c99", "-o", str(exe), str(src)], check=True)

    def run(choices: str) -> int:
        return subprocess.run(
            [str(exe)], env={"ND_CHOICES": choices}, capture_output=True
        ).returncode

    # [0, 2] is the oracle's witness: x = 2 breaks the assert.
    assert run("0,2") == -signal.SIGABRT
    assert run("0,1") == 0
    assert run("2,0") == 0  # 2 is outside nd(0, 1): an infeasible path


@pytest.mark.parametrize("style", ND_STYLES)
def test_range_bounds_print_as_operands_of_the_comparisons(style):
    # Unparenthesized, a bound a < b would print __nd_0 >= a < b, which C
    # reads as (__nd_0 >= a) < b.
    program = parse("int a, b, x;\nmain() { x = nd(a < b, a || b); }")
    text = emit_verifiable(program, EmitConfig(style))
    assert ">= (a < b) && __nd_0 <= (a || b));" in text
    assert parse(strip_scaffolding(text)) == program


def test_report_validates_against_schema(fig7):
    doc = json.loads(emit_report(analyze_program(fig7), classify_all(fig7)))
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_report_content(fig1):
    doc = json.loads(emit_report(analyze_program(fig1), classify_all(fig1)))
    assert [a["name"] for a in doc["arrays"]] == ["a_p", "a_q"]
    assert all(a["size"] == 100000 for a in doc["arrays"])
    first_loop = doc["loops"][0]
    assert first_loop["full_access"] is True
    assert first_loop["defs"] == ["k"]
    assert first_loop["bound"] == {"kind": "known", "lo": 0, "hi": 99999}
    (assertion,) = doc["assertions"]
    assert assertion["precise"] is True


def test_report_is_deterministic(fig7):
    verdicts = classify_all(fig7)
    a = emit_report(analyze_program(fig7), verdicts)
    b = emit_report(analyze_program(fig7), verdicts)
    assert a == b


def test_report_for_program_without_arrays():
    p = parse("int x;\nmain() { x = 1; }")
    doc = json.loads(emit_report(analyze_program(p), classify_all(p)))
    assert doc == {"arrays": [], "loops": [], "assertions": []}
