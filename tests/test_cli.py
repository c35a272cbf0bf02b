import json
import os
import pathlib
import shutil
import stat
import subprocess
import sys

from arraywitness import cli, parse
from arraywitness.cli import run
from arraywitness.emit import REPORT_SCHEMA, strip_scaffolding

import jsonschema
import pytest

from conftest import fixture_path

FIG1 = str(fixture_path("fig1.c"))
FIG1_SMALL = str(fixture_path("fig1_small.c"))
FIG7_SMALL = str(fixture_path("fig7_small.c"))


def test_transform_writes_output_and_report(tmp_path):
    out = tmp_path / "out.c"
    report = tmp_path / "report.json"
    status = run(["transform", FIG1, "-o", str(out), "--report", str(report)])
    assert status == 0
    parse(strip_scaffolding(out.read_text()))
    jsonschema.validate(json.loads(report.read_text()), REPORT_SCHEMA)


def test_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.c", tmp_path / "b.c"
    assert run(["transform", FIG1, "-o", str(a)]) == 0
    assert run(["transform", FIG1, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_check_precision_output(capsys):
    assert run(["transform", FIG1, "--check-precision"]) == 0
    out = capsys.readouterr().out
    assert "precise" in out


def test_check_precision_reports_rules(capsys):
    assert run(["transform", str(fixture_path("fig7.c")), "--check-precision"]) == 0
    out = capsys.readouterr().out
    assert "imprecise" in out and "l1" in out


def test_oracle_agreement_exit_zero(capsys):
    status = run(
        ["transform", FIG1_SMALL, "--oracle", "--array-size", "4",
         "--value-domain", "0:3"]
    )
    assert status == 0
    out = capsys.readouterr().out
    assert "sound: yes" in out
    assert "precise-consistent: yes" in out


def test_oracle_imprecise_case_is_still_exit_zero(tmp_path, capsys):
    src = tmp_path / "carried.c"
    src.write_text(
        "int i, k;\nint a[4];\n"
        "main() { k = 0; for (i = 0; i < 4; i++) "
        "{ a[i] = k; k = k + 1; assert(a[i] == i); } }\n"
    )
    status = run(
        ["transform", str(src), "--oracle", "--array-size", "4",
         "--value-domain", "0:3"]
    )
    # Imprecise (carried scalar in the write) but sound: no exit 1.
    assert status == 0
    out = capsys.readouterr().out
    assert "original:    safe" in out
    assert "transformed: unsafe" in out
    assert "sound: yes" in out


def test_oracle_mixed_sizes_cannot_be_overridden(capsys):
    # fig7_small mixes sizes 4 and 2; a uniform override drives a[i + 2]
    # out of bounds, which is reported as a usage error.
    status = run(["transform", FIG7_SMALL, "--oracle", "--array-size", "4"])
    assert status == 2
    assert capsys.readouterr().err == "error: index 4 out of bounds for a[4] at location 36\n"


def test_oracle_size_override_keeps_steps_and_scalar_constants(tmp_path, capsys):
    # Safe at every size. Only the loop bound tracks the size: the step of
    # i++ and the scalar constants equal 2 - 1 but are not indices.
    src = tmp_path / "s2.c"
    src.write_text(
        "int a[2];\nint i, x;\n"
        "main() { x = 1; for (i = 0; i < 2; i++) { a[i] = x; } assert(x + 1 == 2); }\n"
    )
    assert run(["transform", str(src), "--oracle", "--array-size", "4"]) == 0
    assert capsys.readouterr().out == "original:    safe\ntransformed: safe\nsound: yes\n"


def test_oracle_size_override_refuses_an_index_literal_it_leaves_out_of_bounds(tmp_path, capsys):
    # Generated seed 75: a[3] is the last cell and tracks the size, a[2] does
    # not, so at size 2 it would index past the end.
    src = tmp_path / "seed75.c"
    src.write_text("int a[4];\nint k, s;\n"
                   "main() { s = 3 % 2 % 3; assert(s + a[3] > a[0]); k = a[2]; }\n")
    assert run(["transform", str(src), "--oracle", "--array-size", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: index literal 2 of array a is not below the array size override 2\n"
    # At size 3, a[2] is the last cell.
    assert run(["transform", str(src), "--oracle", "--array-size", "3"]) == 0
    assert capsys.readouterr().out == "original:    safe\ntransformed: unsafe\nsound: yes\n"


def test_missing_file_exit_two(capsys):
    assert run(["transform", "no-such-file.c"]) == 2
    assert capsys.readouterr().err == "error: cannot read no-such-file.c: No such file or directory\n"


def test_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int x;\nmain() { x = ; }")
    assert run(["transform", str(bad)]) == 2
    assert capsys.readouterr().err == "error: 2:14: expected expression, found ';'\n"


def test_transformed_construct_in_input_is_an_error(tmp_path, capsys):
    src = tmp_path / "nd.c"
    src.write_text("int x;\nmain() { x = nd(); }")
    assert run(["transform", str(src)]) == 2
    assert capsys.readouterr().err == (
        "error: construct Nd at location 5 is only valid in already-transformed programs\n"
    )


@pytest.mark.parametrize(
    "rhs",
    ["(" * 5000 + "1" + ")" * 5000, " + ".join(["1"] * 5000)],
    ids=["nested-parentheses", "long-sum"],
)
def test_deep_nesting_is_a_parse_error(tmp_path, capsys, rhs):
    deep = tmp_path / "deep.c"
    deep.write_text(f"int x;\nmain() {{ x = {rhs}; }}")
    assert run(["transform", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested" in err and err.count("\n") == 1
    if rhs.startswith("("):
        # The parser gives up inside the parentheses, and says where.
        line, col = map(int, err.split(":")[1:3])
        assert line == 2 and len("main() { x = (") < col <= len("main() { x = ") + 5000, err


@pytest.mark.parametrize(
    "source",
    [
        "int x;\nmain() { x = " + "1" * 5000 + "; }",
        "int x;\nmain() { x = 2147483648; }",
        "int a[2147483648];\nmain() { }",
    ],
    ids=["5000-digits", "int-max-plus-one", "array-size"],
)
def test_out_of_range_literal_is_a_parse_error(tmp_path, capsys, source):
    big = tmp_path / "big.c"
    big.write_text(source)
    assert run(["transform", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds" in err and err.count("\n") == 1


def test_oracle_runs_many_sequential_choices(tmp_path, capsys):
    # The oracle forks from an explicit stack, so a run's choices cost no Python frames.
    src = tmp_path / "many.c"
    src.write_text(
        "int x, i;\nint a[2];\nmain() { " + "x = input(); " * 400
        + "for (i = 0; i < 2; i++) { a[i] = x; assert(a[i] == x); } }\n"
    )
    status = run(["transform", str(src), "--oracle", "--array-size", "2",
                  "--value-domain", "0:0"])
    out, err = capsys.readouterr()
    assert (status, err) == (0, "")
    for line in ("original:    safe", "transformed: safe", "sound: yes", "precise-consistent: yes"):
        assert line in out.splitlines()


@pytest.mark.parametrize("domain, reason", [
    ("5:1", "empty domain '5:1'"),
    ("5", "expected LO:HI, got '5'"),
    ("0:x", "expected LO:HI, got '0:x'"),
])
def test_bad_value_domain_is_a_usage_error(capsys, domain, reason):
    assert run(["transform", FIG1, "--value-domain", domain]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --value-domain: {reason}\n")


def test_negative_value_domain_in_the_equals_form(tmp_path, capsys):
    # argparse takes a separate "-3:-1" for an option, so a negative LO is
    # written as --value-domain=-3:-1; every input() is then negative.
    src = tmp_path / "negative.c"
    src.write_text("int x, i;\nint a[2];\nmain() { x = input();"
                   " for (i = 0; i < 2; i++) { a[i] = x; } assert(a[1] >= 0); }\n")
    status = run(["transform", str(src), "--oracle", "--array-size", "2",
                  "--value-domain=-3:-1"])
    out, err = capsys.readouterr()
    assert (status, err) == (0, "")
    for line in ("original:    unsafe", "transformed: unsafe", "sound: yes"):
        assert line in out.splitlines()


def test_oracle_choice_wider_than_the_budget_is_an_error(capsys):
    status = run(["transform", FIG1, "--oracle", "--array-size", "2",
                  "--value-domain", "0:99999999999999"])
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith("error: choice at location ") and err.count("\n") == 1


def test_reserved_identifier_is_a_parse_error(tmp_path, capsys):
    # The harness names its temporaries __nd_0, __nd_1, ...: a program variable
    # of that name would be shadowed by one.
    src = tmp_path / "reserved.c"
    src.write_text("int i, __nd_0;\nint a[4];\nmain() { __nd_0 = 1;\n"
                   "for (i = 0; i < 3; i++) { a[i] = __nd_0; } }\n")
    assert run(["transform", str(src), "-o", str(tmp_path / "out.c")]) == 2
    assert capsys.readouterr().err == "error: 1:8: identifier '__nd_0' is reserved\n"
    assert not (tmp_path / "out.c").exists()


@pytest.mark.parametrize("name, style, value, accepted_by", [
    ("nondet_int", "cbmc", "1", "stub"),
    ("exit", "stub", "1", "cbmc"),
    ("input", "svcomp", "input()", None),  # every dialect declares input()
])
def test_variable_named_like_a_preamble_function_is_an_error(
    tmp_path, capsys, name, style, value, accepted_by
):
    # The variable would redeclare a function that the dialect's preamble
    # declares or calls, and gcc would reject the emitted C.
    src, out = tmp_path / "clash.c", tmp_path / "out.c"
    src.write_text(f"int {name}, i;\nmain() {{ i = {value}; assert(i == {name}); }}\n")
    assert run(["transform", str(src), "-o", str(out), "--nd-style", style]) == 2
    assert capsys.readouterr().err == (
        f"error: variable '{name}' clashes with {name}() in the {style} preamble; rename it\n"
    )
    assert not out.exists()
    if accepted_by is not None:
        assert run(["transform", str(src), "-o", str(out), "--nd-style", accepted_by]) == 0


@pytest.mark.parametrize("name", ["abs", "printf", "strlen", "malloc"])
def test_stub_leaves_other_library_names_free(tmp_path, name):
    # The stub preamble includes only <assert.h> and declares the functions
    # it calls itself, so a variable may take any other library name.
    src, out = tmp_path / "lib.c", tmp_path / "out.c"
    src.write_text(f"int {name}, i;\nmain() {{ i = input(); assert(i == {name}); }}\n")
    assert run(["transform", str(src), "-o", str(out), "--nd-style", "stub"]) == 0
    if shutil.which("gcc") is None:
        pytest.skip("gcc not available")
    gcc = subprocess.run(["gcc", "-std=c99", "-c", "-o", str(tmp_path / "out.o"), str(out)],
                         capture_output=True, text=True)
    assert gcc.returncode == 0, gcc.stderr


def test_break_outside_a_loop_is_an_error(tmp_path, capsys):
    # gcc rejects the emitted C: "break statement not within loop or switch".
    src = tmp_path / "break.c"
    src.write_text("int x;\nmain() { break; }")
    assert run(["transform", str(src), "-o", str(tmp_path / "out.c")]) == 2
    assert capsys.readouterr().err == "error: 2:10: 'break' outside a loop\n"
    assert not (tmp_path / "out.c").exists()


def test_c_keyword_is_refused_as_a_name(tmp_path, capsys):
    # gcc rejects a variable named while in the emitted C; bool is a keyword
    # only from C23 on, so gcc's default mode and -std=c99 accept it.
    src, out = tmp_path / "kw.c", tmp_path / "out.c"
    src.write_text("int while, i;\nmain() { i = input(); assert(i == 0); }\n")
    assert run(["transform", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: 1:5: expected identifier, found 'while'\n"
    assert not out.exists()
    src.write_text("int bool, i;\nmain() { i = input(); assert(i == bool); }\n")
    assert run(["transform", str(src), "-o", str(out), "--nd-style", "stub"]) == 0
    if shutil.which("gcc") is None:
        pytest.skip("gcc not available")
    gcc = subprocess.run(["gcc", "-std=c99", "-c", "-o", str(tmp_path / "out.o"), str(out)],
                         capture_output=True, text=True)
    assert gcc.returncode == 0, gcc.stderr


def test_name_error_is_one_line_at_the_identifier(tmp_path, capsys):
    src = tmp_path / "undeclared.c"
    src.write_text("int i;\nmain() { i = 0;\n  i = i + k; }\n")
    assert run(["transform", str(src)]) == 2
    assert capsys.readouterr().err == "error: 3:11: use of undeclared identifier 'k'\n"


def test_array_size_requires_oracle(tmp_path, capsys):
    out = tmp_path / "out.c"
    assert run(["transform", FIG1, "-o", str(out), "--array-size", "4"]) == 2
    assert capsys.readouterr().err == "error: --array-size requires --oracle\n"
    assert not out.exists()


def test_oracle_requires_array_size(capsys):
    assert run(["transform", FIG1, "--oracle"]) == 2
    assert capsys.readouterr().err == "error: --oracle requires --array-size\n"


def test_oracle_size_cap(capsys):
    assert run(["transform", FIG1, "--oracle", "--array-size", "100"]) == 2
    assert capsys.readouterr().err == "error: --oracle requires --array-size <= 8\n"


def test_oracle_array_size_must_be_positive(capsys):
    assert run(["transform", FIG1, "--oracle", "--array-size", "0"]) == 2
    assert capsys.readouterr().err == "error: --array-size must be positive\n"


def test_bmc_requires_output(capsys):
    assert run(["transform", FIG1, "--bmc"]) == 2
    assert capsys.readouterr().err == "error: --bmc requires -o/--output\n"


def test_bmc_missing_binary_warns(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BMC_BIN", raising=False)
    out = tmp_path / "out.c"
    assert run(["transform", FIG1, "-o", str(out), "--bmc"]) == 0
    assert "BMC_BIN" in capsys.readouterr().err


def test_bmc_pass_through(tmp_path, capsys, monkeypatch):
    fake = tmp_path / "fakebmc"
    fake.write_text("#!/bin/sh\ngrep -q 'begin program' \"$1\"\n")
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("BMC_BIN", str(fake))
    out = tmp_path / "out.c"
    assert run(["transform", FIG1, "-o", str(out), "--bmc"]) == 0
    assert "bmc exit status: 0" in capsys.readouterr().out


def test_bmc_timeout_is_an_error(tmp_path, capsys, monkeypatch):
    fake = tmp_path / "slowbmc"
    fake.write_text("#!/bin/sh\nexec sleep 30\n")
    fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
    monkeypatch.setenv("BMC_BIN", str(fake))
    monkeypatch.setattr(cli, "BMC_TIMEOUT_S", 0.2)
    out = tmp_path / "out.c"
    assert run(["transform", FIG1, "-o", str(out), "--bmc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "did not finish" in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["not-utf8", "missing-directory", "report-is-a-directory"])
def test_unreadable_or_unwritable_file_is_an_error(tmp_path, capsys, case):
    src = tmp_path / "in.c"
    src.write_bytes(b"int i;\xff\nmain() { }\n")
    argv, verb, path = {
        "not-utf8": (["transform", str(src)], "read", src),
        "missing-directory": (
            ["transform", FIG1, "-o", str(tmp_path / "no-dir" / "x.c")],
            "write", tmp_path / "no-dir" / "x.c",
        ),
        "report-is-a-directory": (
            ["transform", FIG1, "--report", str(tmp_path)], "write", tmp_path,
        ),
    }[case]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot {verb} {path}: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob(".tmp-*"))


def test_output_files_get_normal_modes(tmp_path):
    out, report = tmp_path / "out.c", tmp_path / "report.json"
    argv = ["transform", FIG1, "-o", str(out), "--report", str(report)]
    old = os.umask(0o022)
    try:
        assert run(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert stat.S_IMODE(report.stat().st_mode) == 0o644
        out.chmod(0o640)
        report.chmod(0o604)
        os.umask(0o077)
        assert run(argv) == 0  # replaced files keep their modes
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert stat.S_IMODE(report.stat().st_mode) == 0o604
        out.unlink()
        assert run(argv) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
    finally:
        os.umask(old)


def test_shared_parser_gives_each_call_its_own_output(tmp_path, capsys, monkeypatch):
    # The argument parser is built once per process; each call must still
    # behave as the only call of a fresh process.
    monkeypatch.setenv("COLUMNS", "80")
    usage_error = ["transform", FIG1, "--nd-style", "bogus"]
    calls = [
        usage_error,
        ["transform", "--help"],
        ["transform", FIG1, "-o", str(tmp_path / "out.c"), "--check-precision"],
        usage_error,
    ]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    script = "import sys; from arraywitness.cli import run; sys.exit(run(sys.argv[1:]))"
    for argv in calls:
        alone = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        status = run(argv)
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (
            alone.returncode, alone.stdout, alone.stderr), argv
