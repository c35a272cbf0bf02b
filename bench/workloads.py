"""The three workloads: their inputs, one round of operations, their checks.

A round is a fixed list of operations in an order drawn from the seed. The
runner repeats whole rounds, so every run attempts the same operations the
same number of times per round and fails the same share of them.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from tracing import NULL_TRACER

STYLES = ("cbmc", "svcomp", "stub")


class OpFailed(Exception):
    """An operation that could not complete; counted in ``failed``. ``kind``
    names the way it failed, such as ``BudgetExceeded`` or ``replay``."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.reason = f"{kind}: {detail}"


@dataclass
class Op:
    label: str
    run: Callable[[], object]


class Workload:
    name = ""
    # Operations that fail on every run because of a known fault in the
    # program: label -> (kind of failure, the fault). Any other failure,
    # a listed operation failing in another way included, is a wrong result.
    known_failures: dict[str, tuple[str, str]] = {}
    # Set-ups per run, about 3 s of them; setup_s is their median. The count
    # is fixed, not the time, because each fresh import of the package leaves
    # some memory behind, and peak_rss_mb must not depend on the host's speed.
    setup_repeats = 0

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir / self.name
        self.tracer = NULL_TRACER
        self.aw = None

    def setup(self, aw) -> list[Op]:
        """Build the inputs with package ``aw``; return one round of operations."""
        raise NotImplementedError

    def check(self, results: list[tuple[str, object]], tracer) -> list[str]:
        """Problems in the results of the completed operations; ``tracer``
        holds the traced pass's spans, or is NULL_TRACER when untraced."""
        raise NotImplementedError

    def fixture(self, name: str) -> str:
        return (self.root / "tests" / "fixtures" / name).read_text()

    def shuffled(self, ops: list[Op]) -> list[Op]:
        random.Random(self.seed).shuffle(ops)
        return ops


# -- rewrite -----------------------------------------------------------------

FIXTURES = ("fig1", "fig5", "fig7")
FULL_SCALE = 100_000
LADDER = tuple(10**e for e in range(3, 10))  # 10^3 .. 10^9, 10^5 is the fixture
# Generated programs: fixed, like the fuzz corpus, and the seed rotates their
# dialects and orders them. Their text is heavy-tailed (the largest of the
# first 8,000 is 9.8 KB, the mean 256 bytes), so the total text of a range of
# 100 moved by the seed spreads by 20% (IQR over median) from seed to seed.
GENERATED = range(100)
WIDE = (1, 2, 4, 8, 16, 32)  # fig1-style kernels per wide program

# The fixtures are written at a = 100000 cells (fig7: b = 50000); moving one
# along the ladder rewrites these constants and nothing else.
_SIZE_CONSTANT = re.compile(r"\b(100000|99999|50000|49999)\b")


def scale_fixture(text: str, size: int) -> str:
    new = {"100000": size, "99999": size - 1, "50000": size // 2, "49999": size // 2 - 1}
    return _SIZE_CONSTANT.sub(lambda m: str(new[m.group(1)]), text)


def wide_program(k: int) -> str:
    """K independent copies of fig1's kernel, each with its own arrays,
    scalar and assertion; only the iterator is shared."""
    n = FULL_SCALE
    decls = ", ".join(f"a_p{j}[{n}], a_q{j}[{n}]" for j in range(k))
    scalars = ", ".join(f"k{j}" for j in range(k))
    body = []
    for j in range(k):
        body.append(
            f"  for (i = 0; i < {n}; i++)\n  {{\n    k{j} = i;\n"
            f"    a_p{j}[i] = k{j};\n    a_q{j}[i] = k{j} * k{j};\n  }}\n"
            f"  for (i = 0; i < {n}; i++)\n  {{\n"
            f"    assert(a_q{j}[i] == a_p{j}[i] * a_p{j}[i]);\n  }}\n"
        )
    return f"int {decls};\nint i, {scalars};\n\nmain()\n{{\n{''.join(body)}}}\n"


@dataclass
class RewriteInput:
    label: str
    source: Path
    style: str
    expected_precision: list[bool] | None  # None: no known answer
    family: str = ""  # fixture whose ladder this input belongs to
    size: int = 0

    @property
    def emitted(self) -> Path:
        return self.source.with_suffix(".out.c")

    @property
    def report(self) -> Path:
        return self.source.with_suffix(".json")


class Rewrite(Workload):
    """In-process ``arraywitness transform`` over a corpus of fixtures, a
    size ladder, generated programs and wide programs."""

    name = "rewrite"
    setup_repeats = 15  # about 0.2 s each

    def setup(self, aw) -> list[Op]:
        self.aw = aw
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        inputs = []
        # A fixture keeps one dialect along its ladder, so the ladder texts
        # compare; which dialect rotates with the seed.
        for n, family in enumerate(FIXTURES):
            text = self.fixture(f"{family}.c")
            style = STYLES[(n + self.seed) % 3]
            precise = [family != "fig7"]
            for size in LADDER:
                inputs.append(self._write(f"{family}_{size}", scale_fixture(text, size),
                                          style, precise, family, size))
        for s in GENERATED:
            text = aw.print_program(aw.generate_program(s))
            inputs.append(self._write(f"gen{s}", text, STYLES[(s + self.seed) % 3], None))
        for n, k in enumerate(WIDE):
            inputs.append(self._write(f"wide{k}", wide_program(k),
                                      STYLES[(n + self.seed) % 3], [True] * k))
        self.inputs = {i.label: i for i in inputs}
        return self.shuffled([Op(i.label, self._op(i)) for i in inputs])

    def _write(self, label, text, style, precise, family="", size=0) -> RewriteInput:
        source = self.out_dir / f"{label}.c"
        source.write_text(text)
        return RewriteInput(label, source, style, precise, family, size)

    def _op(self, i: RewriteInput):
        argv = ["transform", str(i.source), "-o", str(i.emitted), "--report", str(i.report),
                "--check-precision", "--nd-style", i.style]

        def transform() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = self.aw.cli.run(argv)
            if status != 0:
                raise OpFailed("exit status", str(status))
            return out.getvalue()

        return transform

    def check(self, results, tracer) -> list[str]:
        problems = []
        for label, stdout in results:
            expected = self.inputs[label].expected_precision
            if expected is not None:
                problems += checks.check_precision(label, stdout, expected)
        emitted = {i.label: i.emitted.read_text() for i in self.inputs.values()}
        for label, text in emitted.items():
            problems += checks.check_emitted_text(label, text)
        for family in FIXTURES:
            problems += checks.check_differs_only_in_numerals(family, {
                i.size: emitted[i.label] for i in self.inputs.values() if i.family == family
            })
        aw = self.aw
        problems += checks.check_golden(
            aw.parse(aw.strip_scaffolding(emitted[f"fig1_{FULL_SCALE}"])),
            aw.parse(self.fixture("fig1_golden.c")),
        )
        return problems + self._gcc([i.emitted for i in self.inputs.values()])

    def _gcc(self, files: list[Path]) -> list[str]:
        gcc = shutil.which("gcc")
        if gcc is None:
            return ["gcc not found: emitted C could not be syntax-checked"]
        proc = subprocess.run([gcc, "-fsyntax-only", "-w", *map(str, files)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            return []
        return [f"gcc rejects emitted C: {proc.stderr.strip()[:500]}"]


# -- oracle-exhaustive -------------------------------------------------------

class OracleExhaustive(Workload):
    """Criterion 2's differential checks: fig1 and fig5 scaled to 4 cells
    and fig7_small, all at domain 0..3."""

    name = "oracle-exhaustive"
    setup_repeats = 45  # about 0.06 s each, mostly the import

    def setup(self, aw) -> list[Op]:
        self.aw = aw
        scaled = aw.OracleConfig(value_domain=(0, 3), array_size_override=4)
        self.cases = [
            ("fig1", aw.parse(self.fixture("fig1.c")), scaled),
            ("fig5", aw.parse(self.fixture("fig5.c")), scaled),
            # fig7 mixes array sizes, so its pre-scaled copy stands in.
            ("fig7_small", aw.parse(self.fixture("fig7_small.c")),
             aw.OracleConfig(value_domain=(0, 3))),
        ]
        random.Random(self.seed).shuffle(self.cases)
        return [Op("criterion2", self._criterion2)]

    def _criterion2(self) -> dict:
        diffs = {}
        for case, program, cfg in self.cases:
            with self.tracer.span("bench.case", case=case):
                diffs[case] = self.aw.differential_check(program, cfg=cfg)
        return diffs

    def check(self, results, tracer) -> list[str]:
        problems = []
        for _, diffs in results:
            for case, diff in diffs.items():
                problems += checks.check_exhaustive(case, diff)
        # The transform of fig7_small is unsafe; its witness must replay.
        _, program, cfg = next(c for c in self.cases if c[0] == "fig7_small")
        witness = results[-1][1]["fig7_small"].trans_verdict.witness
        if witness is not None:
            replayed = self.aw.replay_trace(
                self.aw.transform_program(program), witness.nd_choices, cfg)
            problems += checks.check_replay("fig7_small", witness, replayed)
        if tracer is not NULL_TRACER:
            problems += self._census(tracer)
        return problems

    def _census(self, tracer) -> list[str]:
        """Completed runs of each original, counted in the traced pass."""
        problems = []
        counted = set()
        for s in tracer.spans:
            if s.name == "oracle.enumerate_runs" and s.attrs.get("role") == "orig":
                case = tracer.ancestor(s, "bench.case").attrs["case"]
                counted.add(case)
                problems += checks.check_census(case, s.attrs["runs"])
        missing = set(checks.CENSUS_EXPECTED) - counted
        return problems + [f"{case}: no census in the traced pass" for case in sorted(missing)]


# -- fuzz --------------------------------------------------------------------

FUZZ_SEEDS = range(500)  # criterion 3's range; fixed, the seed only orders it

_BUDGET = ("the oracle re-explores identical states until the 400k-step budget "
           "runs out (CHANGES.md FOUND line on dropped budget seeds; ROADMAP item 2)")
_REPLAY = ("_Machine.eval records a division by zero inside a choiceful "
           "expression with the choices from the start of the statement "
           "(CHANGES.md FOUND line on _Machine.eval)")


@dataclass
class FuzzResult:
    seed: int
    diff: object
    transformed: object
    conformant: bool
    replays: list  # (witness, replayed verdict) per unsafe side


class Fuzz(Workload):
    """Criterion 3's campaign: rewrite, grammar check, differential check
    and witness replay of generated programs 0..499 at domain 0..2."""

    name = "fuzz"
    setup_repeats = 5  # about 0.6 s each
    known_failures = {
        **{f"seed {s}": ("BudgetExceeded", _BUDGET) for s in (61, 182, 286, 476)},
        **{f"seed {s}": ("replay", _REPLAY) for s in (278, 325)},
    }

    def setup(self, aw) -> list[Op]:
        self.aw = aw
        self.cfg = aw.OracleConfig(value_domain=(0, 2), max_steps=400_000)
        ops = [Op(f"seed {s}", self._op(s, aw.generate_program(s))) for s in FUZZ_SEEDS]
        return self.shuffled(ops)

    def _op(self, seed: int, program):
        def campaign_step() -> FuzzResult:
            aw = self.aw
            info = aw.transform_with_info(program)
            grammar = aw.validate_output_grammar(info.program, info.witness_indices)
            try:
                diff = aw.differential_check(program, info.program, self.cfg)
            except aw.oracle.BudgetExceeded as e:
                raise OpFailed("BudgetExceeded", str(e)) from None
            replays = []
            for side, verdict in ((program, diff.orig_verdict), (info.program, diff.trans_verdict)):
                if verdict.safe:
                    continue
                try:
                    replayed = aw.replay_trace(side, verdict.witness.nd_choices, self.cfg)
                except aw.oracle.OracleError as e:
                    raise OpFailed("replay", str(e)) from None
                replays.append((verdict.witness, replayed))
            return FuzzResult(seed, diff, info.program, grammar.conformant, replays)

        return campaign_step

    def check(self, results, tracer) -> list[str]:
        problems = []
        for _, r in results:
            problems += checks.check_fuzz_pair(r.seed, r.diff, r.transformed, r.conformant)
            for witness, replayed in r.replays:
                problems += checks.check_replay(f"seed {r.seed}", witness, replayed)
        return problems


WORKLOADS = {w.name: w for w in (Rewrite, OracleExhaustive, Fuzz)}
