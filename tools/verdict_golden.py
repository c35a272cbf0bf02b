"""Print the verdict golden that ``tests/test_acceptance.py`` compares against.

Run from the root of a checkout:

    python3 tools/verdict_golden.py > tests/fixtures/verdicts.json

For each program, original and transformed, it records the verdict and, when
unsafe, the witness choices and the failing location; never the step total,
which a faster or reduced enumeration may change while verdicts must not. The
programs are the small fixtures unscaled at domains 0..1 and 0..2, and
criterion 3's campaign: generated programs from seed 0 at domain 0..2 with a
400,000-step budget, until 500 of them finish. A seed over the budget is
recorded as null and does not count towards the 500.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arraywitness import (  # noqa: E402
    OracleConfig,
    enumerate_runs,
    generate_program,
    parse,
    transform_program,
)
from arraywitness.oracle import BudgetExceeded  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
CAMPAIGN = OracleConfig(value_domain=(0, 2), max_steps=400_000)


def outcome(verdict) -> list:
    """``[verdict]``, or ``[verdict, witness choices, failing location]`` when unsafe."""
    w = verdict.witness
    return [verdict.outcome] if w is None else [verdict.outcome, w.nd_choices, w.failing_assert]


def pair(program, cfg: OracleConfig) -> dict:
    return {"original": outcome(enumerate_runs(program, cfg)),
            "transformed": outcome(enumerate_runs(transform_program(program), cfg))}


def main() -> int:
    fixtures = {f"{name} 0..{hi}": pair(parse((FIXTURES / f"{name}.c").read_text()),
                                        OracleConfig(value_domain=(0, hi)))
                for name in ("fig1_small", "fig5_small", "fig7_small") for hi in (1, 2)}
    seeds, finished, seed = {}, 0, 0
    while finished < 500:
        try:
            seeds[str(seed)] = pair(generate_program(seed), CAMPAIGN)
            finished += 1
        except BudgetExceeded:
            seeds[str(seed)] = None
        seed += 1
    # One program a line, so that a change shows as the lines of its programs.
    print("{")
    for key, table in (("fixtures", fixtures), ("seeds", seeds)):
        rows = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in table.items()]
        print(f'  "{key}": {{\n' + ",\n".join(rows) + "\n  }" + ("," if key == "fixtures" else ""))
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
