"""Benchmark of arraywitness: the rewrite, the exhaustive oracle and the fuzz
campaign, each measured end to end, with a separate traced mode per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload rewrite --seed 1 --seconds 20 --trace 0

One process, one thread, stdlib only. The package is imported from the
checkout's ``src``. Progress and problems go to standard output; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass and the overhead of tracing. README.md
says what each workload and metric is.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from hostspeed import HostSpeed
from tracing import PACKAGE
from workloads import WORKLOADS, OpFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
COLD_REPEATS = 3


def fresh_import():
    """Import the package anew, as a fresh process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    return sys.modules[PACKAGE]


def measure_setup(workload, host: HostSpeed):
    """Set up ``workload.setup_repeats`` times; return the median set-up
    time, in reference time, and the package and operations of the last
    set-up. Garbage of one set-up is collected before the next starts,
    outside the timing."""
    timed = []  # (time, samples before, samples after)
    for _ in range(workload.setup_repeats):
        gc.collect()
        spent0, m0 = host.spent, len(host.samples)
        t0 = time.perf_counter()
        aw = fresh_import()
        ops = workload.setup(aw)
        timed.append((time.perf_counter() - t0 - (host.spent - spent0), m0, len(host.samples)))
    setup_s = statistics.median(t * host.scale(m0, m1) for t, m0, m1 in timed)
    return setup_s, aw, ops


@dataclass
class Pass:
    """Whole rounds of operations, timed one by one."""

    rounds: int = 0
    busy: float = 0.0  # time of every attempted operation, failed ones too
    times: list[float] = field(default_factory=list)  # completed operations
    results: list[tuple[str, object]] = field(default_factory=list)
    failures: dict[str, tuple[str, str]] = field(default_factory=dict)  # label -> kind, reason
    failed: int = 0
    _timed: list = field(default_factory=list)  # (time, samples before, after, completed)

    @property
    def attempted(self) -> int:
        return len(self.times) + self.failed

    def run(self, op, tracer, host: HostSpeed) -> None:
        """Run ``op`` once and record its time, less the sampler's own work."""
        spent0, m0 = host.spent, len(host.samples)
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.op", label=op.label):
                result = op.run()
        except OpFailed as e:
            self.failed += 1
            self.failures[op.label] = (e.kind, e.reason)
            completed = False
        else:
            self.results.append((op.label, result))
            completed = True
        t = time.perf_counter() - t0 - (host.spent - spent0)
        self._timed.append((t, m0, len(host.samples), completed))

    def finish(self, host: HostSpeed) -> None:
        """Scale each time to reference time by the host-speed samples taken
        while the operation ran (see hostspeed.py), then total them."""
        for t, m0, m1, completed in self._timed:
            t *= host.scale(m0, m1)
            self.busy += t
            if completed:
                self.times.append(t)


def timed_pass(ops, host: HostSpeed, seconds: float) -> Pass:
    """Whole rounds until ``seconds`` have passed."""
    p = Pass()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in ops:
            p.run(op, tracing.NULL_TRACER, host)
        p.rounds += 1
    p.finish(host)
    return p


def paired_pass(ops, workload, tracer: tracing.Tracer, seconds: float) -> tuple[Pass, Pass]:
    """Whole rounds until ``seconds`` have passed, in which every operation
    runs twice, once traced and once not. The order alternates, so that
    warm caches and drift in host speed fall on both sides alike."""
    traced, plain = Pass(), Pass()
    unsampled = HostSpeed()  # never started: no samples, so times stay as measured
    traced_first = True
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in ops:
            for on in (True, False) if traced_first else (False, True):
                if not on:
                    plain.run(op, tracing.NULL_TRACER, unsampled)
                    continue
                tracer.install()
                workload.tracer = tracer
                try:
                    traced.run(op, tracer, unsampled)
                finally:
                    tracer.uninstall()
                    workload.tracer = tracing.NULL_TRACER
            traced_first = not traced_first
        traced.rounds += 1
        plain.rounds += 1
    traced.finish(unsampled)
    plain.finish(unsampled)
    return traced, plain


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def end_to_end(setup_s: float, p: Pass) -> dict:
    """The user-visible metrics, in reference time (see hostspeed.py)."""
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(p.times) / p.busy, "ops/s"),
        "op_p50_ms": (statistics.median(p.times) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(setup_tracer: tracing.Tracer, traced: tracing.Tracer, rounds: int,
              overhead: float) -> dict:
    """Layer figures of the traced pass, per round (one pass over the
    workload's operations); ``gen.generate_ms`` is per set-up."""
    own = defaultdict(float)
    count = defaultdict(int)
    attr = defaultdict(float)
    for s, t in zip(traced.spans, tracing.self_times(traced)):
        name = s.name
        if name == "oracle.enumerate_runs":
            name += "." + s.attrs["role"]
            for key in ("runs", "distinct_finals", "array_accesses"):
                attr["oracle." + key] += s.attrs[key]
            attr["oracle.enumerate_s"] += t
            attr["oracle.budget_exceeded"] += s.attrs.get("error") == "BudgetExceeded"
        own[name] += t
        count[name] += 1
        for key in ("bytes", "out_nodes"):
            attr[f"{name}.{key}"] += s.attrs.get(key, 0)
    gen_s = sum(t for s, t in zip(setup_tracer.spans, tracing.self_times(setup_tracer))
                if s.name == "gen.generate_program")

    def ms(*names):
        return sum(own[n] for n in names) * 1000 / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    precision = [n for n in own if n.startswith("precision.")]
    assertions = count["precision.classify"]
    # Whole cost of classifying, the analysis it re-runs included.
    classify_s = sum(
        s.duration for s in traced.spans
        if s.name.startswith("precision.")
        and traced.ancestor(s, "precision.classify_all") is None
        and traced.ancestor(s, "precision.classify_program") is None
    )
    m = {
        "parser.parse_ms": (ms("parser.parse"), "ms"),
        "parser.kb_per_s": (ratio(attr["parser.parse.bytes"] / 1024, own["parser.parse"]), "KB/s"),
        "analysis.analyze_ms": (ms("analysis.analyze_program"), "ms"),
        "transform.transform_ms": (ms("transform.transform_with_info",
                                      "transform.transform_program"), "ms"),
        "transform.out_nodes": (attr["transform.transform_with_info.out_nodes"] / rounds, "count"),
        "precision.classify_ms": (ms(*precision), "ms"),
        "precision.assertions": (assertions / rounds, "count"),
        "precision.ms_per_assertion": (ratio(classify_s * 1000, assertions), "ms"),
        "grammar.validate_ms": (ms("grammar.validate_output_grammar"), "ms"),
        "emit.c_ms": (ms("emit.emit_verifiable"), "ms"),
        "emit.c_bytes": (attr["emit.emit_verifiable.bytes"] / rounds, "bytes"),
        "emit.report_ms": (ms("emit.emit_report"), "ms"),
        "cli.run_ms": (ms("cli.run"), "ms"),
        "cli.cold_ms": (cold_cli_ms(), "ms"),
        "gen.generate_ms": (gen_s * 1000, "ms"),
        "oracle.orig_ms": (ms("oracle.enumerate_runs.orig"), "ms"),
        "oracle.trans_ms": (ms("oracle.enumerate_runs.trans"), "ms"),
        "oracle.runs": (attr["oracle.runs"] / rounds, "count"),
        "oracle.runs_per_s": (ratio(attr["oracle.runs"], attr["oracle.enumerate_s"]), "runs/s"),
        "oracle.array_accesses": (attr["oracle.array_accesses"] / rounds, "count"),
        "oracle.distinct_finals": (attr["oracle.distinct_finals"] / rounds, "count"),
        "oracle.distinct_share": (ratio(attr["oracle.distinct_finals"], attr["oracle.runs"]),
                                  "ratio"),
        "oracle.budget_exceeded": (attr["oracle.budget_exceeded"] / rounds, "count"),
        "oracle.scale_ms": (ms("oracle.scale_arrays"), "ms"),
        "oracle.replay_ms": (ms("oracle.replay_trace"), "ms"),
        "trace.spans": (len(traced.spans) / rounds, "count"),
        "trace.overhead_pct": (overhead * 100, "%"),
    }
    m.update(line_counts())
    return m


def cold_cli_ms() -> float:
    """``arraywitness transform`` on fig1 as a fresh process, median of a few."""
    out = OUT / "cold"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "arraywitness.cli", "transform",
            str(ROOT / "tests" / "fixtures" / "fig1.c"), "-o", str(out / "fig1.out.c"),
            "--report", str(out / "fig1.json"), "--check-precision"]
    times = []
    for _ in range(COLD_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def line_counts() -> dict:
    """Source lines of each module, for the size of the package."""
    src = ROOT / "src" / PACKAGE
    names = ["__init__", "analysis", "astnodes", "cli", "emit", "gen", "grammar",
             "oracle", "parser", "precision", "printer", "transform"]
    m = {}
    for n in names:
        f = src / f"{n}.py"
        lines = len(f.read_text().splitlines()) if f.exists() else 0
        m[f"{n.strip('_')}.lines"] = (lines, "lines")
    m["src.lines"] = (sum(len(f.read_text().splitlines()) for f in src.glob("*.py")), "lines")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file() or \
            not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: {ROOT} holds no {PACKAGE} sources (src/{PACKAGE}, tests/fixtures)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT)
    with HostSpeed() as host:
        setup_s, aw, ops = measure_setup(workload, host)
        if not args.trace:
            measured = timed_pass(ops, host, args.seconds)

    if args.trace:
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
        ops = workload.setup(aw)
        setup_tracer.uninstall()
        tracer = tracing.Tracer()
        measured, plain = paired_pass(ops, workload, tracer, args.seconds)
        overhead = measured.busy / plain.busy - 1
        problems = workload.check(measured.results + plain.results, tracer)
        metrics = per_layer(setup_tracer, tracer, measured.rounds, overhead)
    else:
        problems = workload.check(measured.results, tracing.NULL_TRACER)
        metrics = end_to_end(setup_s, measured)

    lines, unknown = checks.check_failures(measured.failures, workload.known_failures)
    for line in lines:
        print(f"failed: {args.workload} {line}")
    problems += unknown
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
