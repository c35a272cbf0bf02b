"""Print one sha256 over everything the oracle reports, so that "same outputs
as another checkout" is one command run in each.

Run from the root of a checkout:

    python3 tools/oracle_digest.py            # fixtures and seeds 0-499
    python3 tools/oracle_digest.py --seeds 60 # fixtures and seeds 0-59
    python3 tools/oracle_digest.py --per-case # also each case's own sha256

For each program, original and transformed, it enumerates twice, once with
and once without an ``on_array_access`` observer, and hashes the verdict, the
witness, ``Verdict.steps``, every ``on_complete`` state in order, the access
log and the replay of the witness; an error is hashed as its type and
message. The programs are the small fixtures unscaled at domains 0..1 and
0..2, fig1, fig5 and fig7 scaled to 2, 3 and 4 cells (domain 0..1, and 0..3 at
4 cells, as criterion 2 runs them), and the generated programs at domain
0..2 with a 400,000-step budget, as criterion 3 runs them. The digest is
sha256 over ``repr`` values, so it does not depend on the process's hash seed.
``--per-case`` first prints one line per case, its label, its value domain
and the sha256 of what it adds to the digest, so that two checkouts' outputs, compared with
``diff``, name the programs whose outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arraywitness import (  # noqa: E402
    OracleConfig,
    enumerate_runs,
    generate_program,
    parse,
    replay_trace,
    transform_program,
)
from arraywitness.oracle import scale_arrays  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


def programs(seeds: int):
    """Yield (label, program thunk, config) for every case, original and transformed."""
    for name in ("fig1_small", "fig5_small", "fig7_small"):
        for hi in (1, 2):
            yield from _pair(name, lambda n=name: parse((FIXTURES / f"{n}.c").read_text()),
                             OracleConfig(value_domain=(0, hi)))
    for name in ("fig1", "fig5", "fig7"):
        for cells, hi in ((2, 1), (3, 1), (4, 1), (4, 3)):
            def scaled(n=name, c=cells):
                return scale_arrays(parse((FIXTURES / f"{n}.c").read_text()), c)
            yield from _pair(f"{name}@{cells}", scaled, OracleConfig(value_domain=(0, hi)))
    fuzz = OracleConfig(value_domain=(0, 2), max_steps=400_000)
    for seed in range(seeds):
        yield from _pair(f"seed {seed}", lambda s=seed: generate_program(s), fuzz)


def _pair(label, make, cfg):
    yield f"{label} original", make, cfg
    yield f"{label} transformed", lambda: transform_program(make()), cfg


def digest_case(update, label: str, make, cfg: OracleConfig) -> None:
    """Feed ``update`` the bytes of one case's outputs."""
    update(label.encode())
    try:
        program = make()
    except Exception as e:  # an error is an outcome too
        update(repr((type(e).__name__, str(e))).encode())
        return
    for observe in (False, True):
        def complete(state):
            update(repr(state).encode())

        def access(array, i):
            update(f"{array}[{i}]".encode())

        try:
            v = enumerate_runs(program, cfg, on_complete=complete,
                               on_array_access=access if observe else None)
        except Exception as e:
            update(repr((observe, type(e).__name__, str(e))).encode())
            continue
        update(repr((observe, v)).encode())
        if v.witness is not None and not observe:
            update(repr(replay_trace(program, v.witness.nd_choices, cfg)).encode())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=500,
                    help="check generated programs 0..N-1 (default 500)")
    ap.add_argument("--per-case", action="store_true",
                    help="first print each case's label and its own sha256")
    args = ap.parse_args(argv)
    h = hashlib.sha256()
    for label, make, cfg in programs(args.seeds):
        if not args.per_case:
            digest_case(h.update, label, make, cfg)
            continue
        case = hashlib.sha256()

        def update(data: bytes) -> None:
            h.update(data)
            case.update(data)

        digest_case(update, label, make, cfg)
        lo, hi = cfg.value_domain  # two fixture cases share a label, not a domain
        print(f"{label} at {lo}..{hi}: {case.hexdigest()}")
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
