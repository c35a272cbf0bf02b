"""Renders transformed programs as verifier-ready C and writes the JSON report.

Three nondeterminism styles are supported: ``cbmc`` (nondet_int and
__CPROVER_assume), ``svcomp`` (__VERIFIER_nondet_int and __VERIFIER_assume)
and ``stub`` (self-contained helpers reading choices from the ND_CHOICES
environment variable, so the file compiles and runs standalone).

The harness prints in one walk of the printer, after one grammar check.

``strip_scaffolding`` inverts the lowering: the emitted text, with prototypes
and stub bodies removed, the nd temporaries folded back and the braces that
the lowering put around a bare body dropped, re-parses to the same AST that
was emitted.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial

from .analysis import ProgramFacts
from .astnodes import PRECEDENCE, Input, Nd, NdRange, Program
from .grammar import validate_output_grammar
from .precision import RULE_IDS, PrecisionVerdict
from .printer import print_expr, print_stmt

ND_STYLES = ("cbmc", "svcomp", "stub")

_BEGIN = "/* --- begin program --- */"
_END = "/* --- end program --- */"


class EmitError(Exception):
    pass


@dataclass
class EmitConfig:
    nd_style: str = "cbmc"

    def __post_init__(self) -> None:
        if self.nd_style not in ND_STYLES:
            raise ValueError(f"nd_style must be one of {ND_STYLES}")


_STYLE_CALLS = {
    "cbmc": ("nondet_int()", "__CPROVER_assume"),
    "svcomp": ("__VERIFIER_nondet_int()", "__VERIFIER_assume"),
    "stub": ("__stub_nd()", "__stub_assume"),
}

_PREAMBLES = {
    "cbmc": [
        "#include <assert.h>",
        "int nondet_int(void);",
        "void __CPROVER_assume(int cond);",
    ],
    "svcomp": [
        "#include <assert.h>",
        "extern int __VERIFIER_nondet_int(void);",
        "extern void __VERIFIER_assume(int cond);",
    ],
    # The stub declares the library functions it calls, not their headers, so
    # a variable may take any other library name; ``emit_verifiable`` reads
    # the names for its clash check from these lines.
    "stub": [
        "#include <assert.h>",
        "char *getenv(const char *name);",
        "long strtol(const char *str, char **end, int base);",
        "void exit(int status);",
        "static const char *__stub_cursor;",
        "static int __stub_nd(void) {",
        "  if (__stub_cursor == 0) {",
        '    const char *env = getenv("ND_CHOICES");',
        '    __stub_cursor = env == 0 ? "" : env;',
        "  }",
        "  if (*__stub_cursor == '\\0') return 0;",
        "  char *end;",
        "  long v = strtol(__stub_cursor, &end, 10);",
        "  __stub_cursor = (*end == ',') ? end + 1 : end;",
        "  return (int)v;",
        "}",
        "static void __stub_assume(int cond) {",
        "  if (!cond) exit(0);  /* infeasible path */",
        "}",
    ],
}

_INPUT_DECLS = {
    "cbmc": "int input(void);",
    "svcomp": "extern int input(void);",
    "stub": "static int input(void) { return __stub_nd(); }",
}


class _CEmitter:
    """The C lowering that ``printer.print_stmt`` applies as it prints."""

    def __init__(self, style: str):
        self.nd_call, self.assume = _STYLE_CALLS[style]
        self.temp_count = 0
        self.reads_input = False

    def leaf(self, e, pad: str, out: list[str], guarded: bool = False) -> str:
        """C text of a node ``print_expr`` hands back. An ``nd(lo, hi)``
        is drawn into a temporary on a line of its own, and ``input()`` noted.
        A ``guarded`` range, which C evaluates only under a condition, is
        refused: its temporary would be drawn whether or not it is reached."""
        t = type(e)
        if t is Nd:
            return self.nd_call
        if t is NdRange:
            if guarded:
                raise EmitError(f"cannot emit nd(lo, hi) at location {e.loc}: C evaluates it "
                                "only under a condition, but its temporary is drawn first")
            # The bounds print first, as right operands of >= and <=, so
            # a range nested in one draws its temporary first.
            lo, hi = (print_expr(b, PRECEDENCE[">="] + 1, partial(self.leaf, pad=pad, out=out))
                      for b in (e.lo, e.hi))
            name = f"__nd_{self.temp_count}"
            self.temp_count += 1
            out.append(
                f"{pad}int {name} = {self.nd_call}; "
                f"{self.assume}({name} >= {lo} && {name} <= {hi});"
            )
            return name
        if t is Input:
            self.reads_input = True
            return "input()"
        raise EmitError(f"cannot emit expression {type(e).__name__}")


def emit_verifiable(p: Program, cfg: EmitConfig | None = None) -> str:
    """C text for an output-grammar program under the configured nd style."""
    cfg = cfg or EmitConfig()
    report = validate_output_grammar(p)
    if not report.conformant:
        first = report.violations[0]
        raise EmitError(
            f"program is not in the output grammar: {first.message} "
            f"(location {first.loc})"
        )
    lower = _CEmitter(cfg.nd_style)
    body = ["int main(void)"]
    print_stmt(p.body, 0, body, lower)
    lines = ["/* loop-free, array-free harness; verify the asserts */"]
    lines.extend(_PREAMBLES[cfg.nd_style])
    if lower.reads_input:
        lines.append(_INPUT_DECLS[cfg.nd_style])
    # A variable named like a function the preamble declares or calls would
    # redeclare that function, and the C would not compile.
    functions = set(re.findall(r"\b(\w+)\(", "\n".join(lines)))
    lines.append(_BEGIN)
    for d in p.decls:
        if d.name in functions:
            raise EmitError(
                f"variable '{d.name}' clashes with {d.name}() in the "
                f"{cfg.nd_style} preamble; rename it"
            )
        lines.append(f"int {d.name};")
    return "\n".join([*lines, *body, _END]) + "\n"


# One alternation of the dialects' nd calls, one of their assume calls.
_ND_CALLS, _ASSUMES = ("|".join(map(re.escape, c)) for c in zip(*_STYLE_CALLS.values()))
_ND_CALL_RE = re.compile(_ND_CALLS)
_TEMP_RE = re.compile(
    rf"^\s*int (__nd_\d+) = nd\(\); (?:{_ASSUMES})\(\1 >= (.+) && \1 <= (.+)\);$"
)
_TEMP_NAME_RE = re.compile(r"\b__nd_\d+\b")
_GUARDED_RE = re.compile(
    r"^(\s*)if \((.*)\) \{ (\w+) = (.*); \} else \{ \(void\)\((.*)\); \}$"
)
# The header of a bare body that the lowering braced; its brace closes on the
# first line at the header's indentation.
_BRACED_RE = re.compile(r"^(\s*)(?:if \(.*\)|else|for \(.*\)) \{$")


def strip_scaffolding(text: str) -> str:
    """Undo the C lowering so the program region re-parses with ``parse``.

    It checks emitted C against an AST: the benchmark's fig1 golden check
    and the emit and CLI tests parse emitted text back through it, so a
    change to the lowering that loses or reorders program text fails them.
    """
    try:
        start = text.index(_BEGIN) + len(_BEGIN)
        end = text.index(_END)
    except ValueError:
        raise EmitError("emitted markers not found") from None
    body = text[start:end]
    body = _ND_CALL_RE.sub("nd()", body)

    temps: dict[str, str] = {}
    braced: list[str] = []  # indentation of each open braced header
    out_lines: list[str] = []
    for line in body.splitlines():
        # Folded first, so a bound that reads an earlier temporary is too.
        line = _TEMP_NAME_RE.sub(lambda t: temps.get(t[0], t[0]), line)
        m = _TEMP_RE.match(line)
        if m:
            temps[m.group(1)] = f"nd({m.group(2)}, {m.group(3)})"
            continue
        if braced and line == braced[-1] + "}":
            braced.pop()
            continue
        g = _GUARDED_RE.match(line)
        if g:
            indent, cond, name, value, discard = g.groups()
            line = f"{indent}({cond}) ? {name} = {value} : {discard};"
        elif b := _BRACED_RE.match(line):
            braced.append(b.group(1))
            line = line[:-2]
        out_lines.append(line)
    stripped = "\n".join(out_lines)
    stripped = stripped.replace("int main(void)", "main()")
    return stripped.strip() + "\n"


# ---------------------------------------------------------------------------
# JSON report


REPORT_SCHEMA = {
    "type": "object",
    "required": ["arrays", "loops", "assertions"],
    "additionalProperties": False,
    "properties": {
        "arrays": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "size", "witness_var", "witness_idx"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "size": {"type": "integer", "minimum": 1},
                    "witness_var": {"type": "string"},
                    "witness_idx": {"type": "string"},
                },
            },
        },
        "loops": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["location", "full_access", "defs", "bound"],
                "additionalProperties": False,
                "properties": {
                    "location": {"type": "integer"},
                    "full_access": {"type": "boolean"},
                    "defs": {"type": "array", "items": {"type": "string"}},
                    "bound": {
                        "type": "object",
                        "required": ["kind"],
                        "additionalProperties": False,
                        "properties": {
                            "kind": {"enum": ["known", "empty", "unknown"]},
                            "lo": {"type": "integer"},
                            "hi": {"type": "integer"},
                        },
                    },
                },
            },
        },
        "assertions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["location", "precise", "violated_rules"],
                "additionalProperties": False,
                "properties": {
                    "location": {"type": "integer"},
                    "precise": {"type": "boolean"},
                    "violated_rules": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["rule", "location", "note"],
                            "additionalProperties": False,
                            "properties": {
                                "rule": {"enum": list(RULE_IDS)},
                                "location": {"type": "integer"},
                                "note": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
    },
}


def _bound_dict(bound: range | None) -> dict:
    if bound is None:
        return {"kind": "unknown"}
    if not bound:
        return {"kind": "empty"}
    return {"kind": "known", "lo": bound[0], "hi": bound[-1]}


def emit_report(facts: ProgramFacts, verdicts: list[PrecisionVerdict]) -> str:
    """Deterministic JSON report over the analysis and classification facts."""
    doc = {
        "arrays": [
            {
                "name": a.name,
                "size": a.size,
                "witness_var": a.witness_var,
                "witness_idx": a.witness_idx,
            }
            for a in facts.arrays
        ],
        "loops": [
            {
                "location": loc,
                "full_access": s.full_access,
                "defs": sorted(s.defs),
                "bound": _bound_dict(s.bound),
            }
            for loc, s in sorted(facts.summaries.items())
        ],
        "assertions": [
            {
                "location": v.assertion_loc,
                "precise": v.precise,
                "violated_rules": [
                    {"rule": r.rule, "location": r.loc, "note": r.note}
                    for r in v.violated_rules
                ],
            }
            for v in sorted(verdicts, key=lambda v: v.assertion_loc)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
