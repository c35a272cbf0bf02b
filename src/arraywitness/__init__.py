"""Witness-pair abstraction of 1-D array loop programs.

Parses a small C subset, rewrites it into a loop-free, array-free harness
(each array becomes a witness variable plus a nondeterministically fixed
witness index), classifies assertions for which the rewrite is exact, and
differentially validates both claims with an exhaustive bounded interpreter.
"""

from .analysis import (
    ArrayInfo,
    LoopSummary,
    ProgramFacts,
    analyze_program,
    loop_bound,
)
from .emit import EmitConfig, emit_report, emit_verifiable, strip_scaffolding
from .gen import generate_program
from .grammar import ConformanceReport, validate_output_grammar
from .oracle import (
    OracleConfig,
    Trace,
    Verdict,
    differential_check,
    enumerate_runs,
    replay_trace,
)
from .parser import ParseError, parse
from .precision import (
    PrecisionVerdict,
    classify,
    classify_all,
    classify_program,
    dependence_closure,
)
from .printer import print_program
from .transform import TransformResult, transform_program, transform_with_info

__all__ = [
    "ArrayInfo",
    "ConformanceReport",
    "EmitConfig",
    "LoopSummary",
    "OracleConfig",
    "ParseError",
    "PrecisionVerdict",
    "ProgramFacts",
    "Trace",
    "TransformResult",
    "Verdict",
    "analyze_program",
    "classify",
    "classify_all",
    "classify_program",
    "dependence_closure",
    "differential_check",
    "emit_report",
    "emit_verifiable",
    "enumerate_runs",
    "generate_program",
    "loop_bound",
    "parse",
    "print_program",
    "replay_trace",
    "strip_scaffolding",
    "transform_program",
    "transform_with_info",
    "validate_output_grammar",
]
