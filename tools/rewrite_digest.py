"""Print one sha256 over everything ``arraywitness transform`` writes, so that
"same rewrite outputs as another checkout" is one command run in each.

Run from the root of a checkout:

    python3 tools/rewrite_digest.py            # fixtures, wide programs, seeds 0-299
    python3 tools/rewrite_digest.py --seeds 20 # fixtures, wide programs, seeds 0-19
    python3 tools/rewrite_digest.py --per-case # also each case's own sha256

Each case is one in-process ``cli.run`` of ``transform SOURCE -o OUT --report
REPORT --check-precision --nd-style STYLE``. The digest hashes its exit
status, stdout, stderr, emitted C and report (a file it did not write is
hashed as ``None``). The sources are the seven files of ``tests/fixtures``,
the wide programs of ``bench/workloads.py`` for K = 1..32 and the printed
generated programs, each in the three dialects. The digest is sha256 over
``repr`` values, so it does not depend on the process's hash seed.
``--per-case`` first prints one line per case, its label and the sha256 of
what it adds to the digest, so that ``diff`` of two checkouts' outputs names
the cases that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from arraywitness import cli, generate_program, print_program  # noqa: E402
from arraywitness.emit import ND_STYLES  # noqa: E402
from workloads import wide_program  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
WIDE = range(1, 33)


def sources(seeds: int):
    """Yield (label, source text) for every program of the sweep."""
    for path in sorted(FIXTURES.glob("*.c")):
        yield path.stem, path.read_text()
    for k in WIDE:
        yield f"wide{k}", wide_program(k)
    for seed in range(seeds):
        yield f"seed {seed}", print_program(generate_program(seed))


def run_case(directory: Path, text: str, style: str) -> tuple:
    """Exit status, stdout, stderr, emitted C and report of one transform."""
    source, out, report = (directory / name for name in ("in.c", "out.c", "report.json"))
    source.write_text(text)
    for path in (out, report):
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.run(["transform", str(source), "-o", str(out), "--report", str(report),
                          "--check-precision", "--nd-style", style])
    written = [p.read_text() if p.exists() else None for p in (out, report)]
    return (status, *(s.getvalue().replace(str(directory), "<dir>") for s in (stdout, stderr)),
            *written)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=300,
                    help="rewrite generated programs 0..N-1 (default 300)")
    ap.add_argument("--per-case", action="store_true",
                    help="first print each case's label and its own sha256")
    args = ap.parse_args(argv)
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in sources(args.seeds):
            for style in ND_STYLES:
                data = repr((label, style, run_case(Path(tmp), text, style))).encode()
                h.update(data)
                if args.per_case:
                    print(f"{label} {style}: {hashlib.sha256(data).hexdigest()}")
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
