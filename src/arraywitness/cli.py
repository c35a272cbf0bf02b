"""Command-line driver: parse, analyze, transform, classify, emit.

Exit codes: 0 on success (and oracle agreement), 1 when the oracle found a
soundness or precision-consistency violation, 2 on usage, parse or analysis
errors and on a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import os
import shutil
import stat
import subprocess
import sys

from .analysis import analyze_program
from .emit import EmitConfig, EmitError, ND_STYLES, emit_report, emit_verifiable
from .oracle import OracleConfig, OracleError, differential_check
from .parser import ParseError, parse
from .precision import classify_all
from .transform import TransformError, transform_with_info

MAX_ORACLE_SIZE = 8
BMC_TIMEOUT_S = 600  # wall-clock limit for the --bmc checker run


def _atomic_write(path: str, content: str) -> None:
    """Replace ``path`` by ``content`` in one rename. A replaced file keeps its
    mode; a new one gets the mode ``open(path, "w")`` would give it."""
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}")
        try:  # the kernel applies the umask to 0o666, as open() does
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as f:
            if mode is not None:
                os.fchmod(fd, mode)
            f.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_domain(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty domain {text!r}")
    return lo, hi


class CliError(Exception):
    """A usage error, or a file that cannot be read or written."""


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None


def _write(path: str, content: str) -> None:
    try:
        _atomic_write(path, content)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arraywitness",
        description="Rewrite array loop programs into loop-free, array-free "
        "harnesses for bounded model checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    t = sub.add_parser("transform", help="transform a source program")
    t.add_argument("input", help="source program file")
    t.add_argument("-o", "--output", help="write emitted C here")
    t.add_argument("--nd-style", choices=ND_STYLES, default="cbmc")
    t.add_argument("--report", help="write the JSON analysis report here")
    t.add_argument(
        "--check-precision",
        action="store_true",
        help="print per-assertion precision verdicts",
    )
    t.add_argument(
        "--oracle",
        action="store_true",
        help="differentially check original vs. transformed by exhaustive "
        "enumeration (requires --array-size)",
    )
    t.add_argument(
        "--array-size", type=int, help="override every array size for --oracle"
    )
    t.add_argument(
        "--value-domain",
        type=_parse_domain,
        default=(0, 3),
        metavar="LO:HI",
        help="oracle domain for nd() and input() (default 0:3)",
    )
    t.add_argument(
        "--bmc",
        action="store_true",
        help="run the checker named by BMC_BIN on the emitted file",
    )
    return parser


# Built once per process: parse_args keeps no state between calls.
_PARSER = _build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0

    try:
        if args.oracle and args.array_size is None:
            raise CliError("--oracle requires --array-size")
        if args.array_size is not None and not args.oracle:
            raise CliError("--array-size requires --oracle")
        if args.array_size is not None and args.array_size < 1:
            raise CliError("--array-size must be positive")
        if args.oracle and args.array_size > MAX_ORACLE_SIZE:
            raise CliError(f"--oracle requires --array-size <= {MAX_ORACLE_SIZE}")
        if args.bmc and not args.output:
            raise CliError("--bmc requires -o/--output")

        program = parse(_read(args.input))
        facts = analyze_program(program)
        result = transform_with_info(program, facts)
        if args.output:
            _write(args.output, emit_verifiable(result.program, EmitConfig(args.nd_style)))

        verdicts = classify_all(program, facts)
        if args.report:
            _write(args.report, emit_report(facts, verdicts))
        if args.check_precision:
            for v in verdicts:
                if v.precise:
                    print(f"assertion at location {v.assertion_loc}: precise")
                else:
                    rules = ", ".join(sorted({r.rule for r in v.violated_rules}))
                    print(
                        f"assertion at location {v.assertion_loc}: imprecise "
                        f"({rules})"
                    )

        status = 0
        if args.oracle:
            cfg = OracleConfig(
                value_domain=args.value_domain,
                array_size_override=args.array_size,
            )
            try:
                # The override is set, so the transform is re-derived at that size.
                diff = differential_check(program, cfg=cfg)
            except RecursionError:  # the oracle recurses once per choice point
                raise CliError("oracle: too many choices in one run") from None
            print(f"original:    {diff.orig_verdict.outcome}")
            print(f"transformed: {diff.trans_verdict.outcome}")
            print(f"sound: {'yes' if diff.sound else 'NO'}")
            if diff.precise_consistent is not None:
                print(
                    "precise-consistent: "
                    f"{'yes' if diff.precise_consistent else 'NO'}"
                )
            if not diff.sound or diff.precise_consistent is False:
                status = 1

        if args.bmc and status == 0:
            bmc = os.environ.get("BMC_BIN")
            if not bmc or shutil.which(bmc) is None:
                print("warning: BMC_BIN not set or not executable; skipping "
                      "pass-through", file=sys.stderr)
            else:
                try:
                    proc = subprocess.run([bmc, args.output], timeout=BMC_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    raise CliError(f"{bmc} did not finish within {BMC_TIMEOUT_S} s") from None
                print(f"bmc exit status: {proc.returncode}")
                status = proc.returncode
        return status
    except (CliError, ParseError, TransformError, EmitError, OracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
