"""Exhaustive small-scale interpreter for both program forms.

Enumerates every combination of nondeterministic choices (``nd()``,
``nd(l,u)`` and ``input()``) depth-first with choice values ascending, so the
first failure found is the lexicographically smallest witness. Serves as the
ground truth for the differential soundness and precision checks.

Loops run from their constant ranges (any other loop is refused at set-up): as
a compiled closure, like choice-free expressions, when the loop makes no choice
and holds no break or continue, else as one work-stack item per iteration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from .analysis import ARRAY_INT, _read_var, analyze_program, loop_bound
from .astnodes import (
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Block,
    Break,
    ChainAssign,
    Const,
    Continue,
    For,
    If,
    Input,
    Nd,
    NdRange,
    Program,
    Read,
    Ternary,
    TernaryAssign,
    Var,
    clone,
    walk,
)


class OracleError(Exception):
    pass


class BudgetExceeded(OracleError):
    pass


class NonConstantBound(OracleError):
    pass


class _Failure(Exception):
    def __init__(self, loc: int, choices: list[int], state: dict[str, int]):
        self.loc = loc
        self.choices = choices
        self.state = state


@dataclass
class OracleConfig:
    value_domain: tuple[int, int] = (0, 3)
    max_steps: int = 5_000_000  # total across the whole enumeration
    array_size_override: int | None = None

    def __post_init__(self) -> None:
        if self.value_domain[0] > self.value_domain[1]:
            raise ValueError("value_domain must be non-empty")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass
class Trace:
    nd_choices: list[int]
    failing_assert: int
    final_state: dict[str, int]


@dataclass
class Verdict:
    outcome: str  # "safe" | "unsafe"
    witness: Trace | None = None
    steps: int = 0  # interpreter steps of the whole enumeration

    @property
    def safe(self) -> bool:
        return self.outcome == "safe"


@dataclass
class DifferentialResult:
    orig_verdict: Verdict
    trans_verdict: Verdict
    precise: bool | None  # None: program has no classifiable assertion

    @property
    def sound(self) -> bool:
        return self.orig_verdict.safe or not self.trans_verdict.safe

    @property
    def precise_consistent(self) -> bool | None:  # None unless classified precise
        return self.orig_verdict.safe == self.trans_verdict.safe if self.precise else None


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _c_mod(a: int, b: int) -> int:
    return a - b * _c_div(a, b)


_ARITH: dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}
_COMPARE: dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_DIVIDE: dict[str, Callable[[int, int], int]] = {"/": _c_div, "%": _c_mod}

_EXPR_TYPES = (Const, Read, BinOp, Ternary, Nd, NdRange, Input)


def _apply(op: str, a: int, b: int, loc: int) -> int:
    """Apply a strict binary operator with C semantics."""
    if op in _ARITH:
        return _ARITH[op](a, b)
    if op in _COMPARE:
        return 1 if _COMPARE[op](a, b) else 0
    if op in _DIVIDE:
        if b == 0:
            raise _Fault(loc)
        return _DIVIDE[op](a, b)
    raise OracleError(f"unknown operator {op!r}")


def _binop_closure(op: str, f, g, loc: int) -> Callable[[dict], int]:
    """Compile ``f op g``; both operands are evaluated left to right, except
    that ``&&`` and ``||`` short-circuit."""
    if op == "&&":
        return lambda state: 1 if f(state) != 0 and g(state) != 0 else 0
    if op == "||":
        return lambda state: 1 if f(state) != 0 or g(state) != 0 else 0
    if op in _ARITH:
        fn = _ARITH[op]
        return lambda state: fn(f(state), g(state))
    if op in _COMPARE:
        test = _COMPARE[op]
        return lambda state: 1 if test(f(state), g(state)) else 0
    return lambda state: _apply(op, f(state), g(state), loc)


def scale_arrays(p: Program, new_size: int) -> Program:
    """Copy of ``p`` with every array resized to ``new_size``.

    Loop-test bounds and whole index literals (``a[N-1]``) equal to an original
    size, or size minus one, track the new size. No other constant changes (not
    a step, not scalar arithmetic, never a 0). Ambiguous mappings are rejected.
    """
    q = clone(p)
    mapping: dict[int, int] = {}
    for d in q.decls:
        if d.kind != ARRAY_INT:
            continue
        for old, new in ((d.size, new_size), (d.size - 1, new_size - 1)):
            if old in mapping and mapping[old] != new:
                raise OracleError(
                    f"ambiguous size override: constant {old} maps to both "
                    f"{mapping[old]} and {new}"
                )
            mapping[old] = new
        d.size = new_size
    mapping.pop(0, None)  # a 1-cell array's last index is also its first
    sites = [n.index if isinstance(n, ArrayAccess) else n.test.rhs for n in walk(q.body)
             if isinstance(n, ArrayAccess) or isinstance(n, For) and isinstance(n.test, BinOp)]
    for c in sites:
        if isinstance(c, Const) and c.value in mapping:
            c.value = mapping[c.value]
    return q


def _initial_state(p: Program) -> dict:
    state: dict = {}
    for d in p.decls:
        state[d.name] = [0] * d.size if d.kind == ARRAY_INT else 0
    return state


def _flatten(state: dict) -> dict[str, int]:
    flat: dict[str, int] = {}
    for name, value in state.items():
        if isinstance(value, list):
            for i, v in enumerate(value):
                flat[f"{name}[{i}]"] = v
        else:
            flat[name] = value
    return flat


def _copy_state(state: dict) -> dict:
    return {k: (list(v) if isinstance(v, list) else v) for k, v in state.items()}


class _Machine:
    def __init__(
        self,
        p: Program,
        cfg: OracleConfig,
        on_complete: Callable[[dict], None] | None = None,
        script: list[int] | None = None,
        on_array_access: Callable[[str, int], None] | None = None,
    ):
        self.cfg = cfg
        self.on_complete = on_complete
        # When set, choice points consume prescribed values instead of
        # enumerating: replays one run from a recorded trace.
        self.script = script
        self.on_array_access = on_array_access
        self.steps = 0
        # Closure for every choice-free expression node, None for a node that
        # makes a nondeterministic choice. Keyed by node identity, so the
        # machine holds on to the program whose nodes the keys name.
        self._program = p
        self._sizes = {d.name: d.size for d in p.decls}
        self._det: dict[int, Callable[[dict], int] | None] = {}
        # Each loop's range, the body items a true test pushes and their steps.
        self._loops: dict[int, tuple[range, list, int]] = {}
        for node in walk(p.body):
            if isinstance(node, _EXPR_TYPES):
                self._compile(node)
            elif isinstance(node, For):
                if (r := loop_bound(node)) is None:
                    raise NonConstantBound(f"loop at location {node.loc} has a non-constant bound")
                items = node.body.stmts[::-1] if isinstance(node.body, Block) else [node.body]
                self._loops[id(node)] = (r, items, 1 + isinstance(node.body, Block))
        self._stmts: dict = {}  # loops' closures, compiled when first reached

    def _compile(self, e) -> Callable[[dict], int] | None:
        """Return ``e``'s evaluation closure, or None when ``e`` has a choice.

        Every subexpression is compiled (and cached) too, so choice-free
        operands of choiceful expressions are available to :meth:`eval`.
        """
        key = id(e)
        if key not in self._det:
            self._det[key] = self._build(e)
        return self._det[key]

    def _build(self, e) -> Callable[[dict], int] | None:
        match e:
            case Nd() | Input():
                return None
            case NdRange(lo, hi):
                self._compile(lo)
                self._compile(hi)
                return None
            case Const(value):
                return lambda state: value
            case Read(Var(name)):
                return lambda state: state[name]
            case Read(ArrayAccess(array, index)):
                if self._compile(index) is None:
                    return None
                return self._read_closure(array, index, e.loc)
            case BinOp(op, lhs, rhs):
                f, g = self._compile(lhs), self._compile(rhs)
                if f is None or g is None:
                    return None
                return _binop_closure(op, f, g, e.loc)
            case Ternary(cond, then, orelse):
                c, t, o = (self._compile(x) for x in (cond, then, orelse))
                if c is None or t is None or o is None:
                    return None
                return lambda state: t(state) if c(state) != 0 else o(state)
        raise OracleError(f"cannot evaluate {type(e).__name__} deterministically")

    def _read_closure(self, array: str, index, loc: int) -> Callable[[dict], int]:
        # An index that is a plain variable is read directly.
        var, idx, notify = _read_var(index), self._det[id(index)], self.on_array_access
        size = self._sizes[array]

        def read(state):
            i = state[var] if var else idx(state)
            arr = state[array]
            if not 0 <= i < size:
                raise _out_of_bounds(array, i, size, loc)
            if notify is not None:
                notify(array, i)
            return arr[i]

        return read

    def _compile_stmt(self, s) -> Callable[[dict], None] | None:
        """Return a closure that runs ``s`` in place on a state, or None when
        ``s`` makes a choice or holds a break or continue. The closure counts
        the steps the work stack takes inside ``s`` (the caller counts ``s``),
        counting together steps with nothing observable between them."""
        det, m, limit = self._det, self, self.cfg.max_steps
        match s:
            case Block(stmts):
                runs = [self._compile_stmt(x) for x in stmts]
                return None if None in runs else self._ticked(runs)
            case For(iterator=it):
                # The body block's statements run inline. The first one's budget check
                # covers the steps before it, so an empty body stays on the work stack.
                r, items, head = self._loops[id(s)]
                runs = [self._compile_stmt(x) for x in reversed(items)]
                if None in runs or not runs:
                    return None
                start, stop, step = r.start, r.stop, r.step

                def loop(state):
                    state[it], ticks = start, head + 1  # the test, the body block, a statement
                    while state[it] < stop:
                        for run in runs:
                            m.steps += ticks
                            if m.steps > limit:
                                raise _over_budget(limit)
                            ticks = 1
                            run(state)
                        state[it] += step
                        ticks = head + 2  # the increment too
                    m.steps += ticks - head  # the increment, if any, and the final test
                    if m.steps > limit:
                        raise _over_budget(limit)

                return loop
            case If(cond, then, orelse) if (test := det[id(cond)]) is not None:
                runs = [self._compile_stmt(x) for x in (then, orelse) if x is not None]
                if None not in runs:
                    yes, no = self._ticked(runs[:1]), self._ticked(runs[1:])
                    return lambda state: (yes if test(state) != 0 else no)(state)
            case Assign(Var(name), value) if (val := det[id(value)]) is not None:
                return lambda state: operator.setitem(state, name, val(state))
            case Assign(ArrayAccess(array, index), value):
                var, idx, val = _read_var(index), det[id(index)], det[id(value)]
                notify, size = self.on_array_access, self._sizes[array]
                if idx is None or val is None:
                    return None

                def store(state):
                    i, arr = (state[var] if var else idx(state)), state[array]
                    if not 0 <= i < size:
                        raise _out_of_bounds(array, i, size, s.loc)
                    arr[i] = val(state)
                    if notify is not None:
                        notify(array, i)

                return store
            case Assert(cond) if (test := det[id(cond)]) is not None:
                def check(state):
                    if test(state) == 0:
                        raise _Fault(s.loc)

                return check
        return None  # a choice, a break or continue, or a target-only statement

    def _ticked(self, runs: list) -> Callable[[dict], None]:
        """Closure that counts a step before each of ``runs`` and runs it."""
        m, limit = self, self.cfg.max_steps

        def block(state):
            for run in runs:
                m.steps += 1
                if m.steps > limit:
                    raise _over_budget(limit)
                run(state)

        return block

    def _scripted(self, choices: list[int], lo: int, hi: int, loc: int):
        pos = len(choices)
        if pos >= len(self.script):
            raise OracleError(f"trace exhausted at choice {pos} (location {loc})")
        v = self.script[pos]
        if not lo <= v <= hi:
            raise OracleError(
                f"scripted value {v} outside [{lo}, {hi}] at location {loc}"
            )
        return v, choices + [v]

    # -- expression evaluation --------------------------------------------

    def eval(self, e, state, choices: list[int]) -> Iterator[tuple[int, list[int]]]:
        """Enumerate the possible values of ``e``, threading choice lists."""
        det = self._det[id(e)]
        if det is not None:
            try:
                v = det(state)
            except _Fault as d:
                # Carry the choices made before this operand, so replaying
                # the trace reproduces the division failure.
                raise _Failure(d.loc, choices, _flatten(state)) from None
            yield v, choices
            return
        match e:
            case Nd() | Input():
                lo, hi = self.cfg.value_domain
                if self.script is not None:
                    yield self._scripted(choices, lo, hi, e.loc)
                    return
                if hi - lo >= self.cfg.max_steps:
                    raise _too_wide(e.loc, self.cfg.max_steps)
                for v in range(lo, hi + 1):
                    yield v, choices + [v]
            case NdRange(lo_e, hi_e):
                for lo, ch1 in self.eval(lo_e, state, choices):
                    for hi, ch2 in self.eval(hi_e, state, ch1):
                        if self.script is not None:
                            yield self._scripted(ch2, lo, hi, e.loc)
                            return
                        if hi - lo >= self.cfg.max_steps:
                            raise _too_wide(e.loc, self.cfg.max_steps)
                        for v in range(lo, hi + 1):
                            yield v, ch2 + [v]
            case BinOp("&&", lhs, rhs):
                for a, ch in self.eval(lhs, state, choices):
                    if a == 0:
                        yield 0, ch
                    else:
                        for b, ch2 in self.eval(rhs, state, ch):
                            yield (1 if b != 0 else 0), ch2
            case BinOp("||", lhs, rhs):
                for a, ch in self.eval(lhs, state, choices):
                    if a != 0:
                        yield 1, ch
                    else:
                        for b, ch2 in self.eval(rhs, state, ch):
                            yield (1 if b != 0 else 0), ch2
            case BinOp(op, lhs, rhs):
                for a, ch in self.eval(lhs, state, choices):
                    for b, ch2 in self.eval(rhs, state, ch):
                        try:
                            yield _apply(op, a, b, e.loc), ch2
                        except _Fault as d:
                            # Carry this branch's choice list so replaying the
                            # trace reproduces the division failure.
                            raise _Failure(d.loc, ch2, _flatten(state)) from None
            case Ternary(cond, then, orelse):
                for c, ch in self.eval(cond, state, choices):
                    taken = then if c != 0 else orelse
                    yield from self.eval(taken, state, ch)
            case Read(ArrayAccess(array, index)):
                for i, ch in self.eval(index, state, choices):
                    arr = state[array]
                    if not 0 <= i < len(arr):
                        raise _out_of_bounds(array, i, len(arr), e.loc)
                    if self.on_array_access is not None:
                        self.on_array_access(array, i)
                    yield arr[i], ch

    # -- statement execution ----------------------------------------------

    def run(self, work: list, state: dict, choices: list[int]) -> None:
        """Execute the work stack to completion; raises _Failure on the first
        failing run, returns after all runs completed safely."""
        while work:
            self.steps += 1
            if self.steps > self.cfg.max_steps:
                raise _over_budget(self.cfg.max_steps)
            item = work.pop()
            try:
                if isinstance(item, tuple):
                    if self._exec_marker(item, work, state, choices):
                        return
                elif self._exec_stmt(item, work, state, choices):
                    return
            except _Fault as d:
                raise _Failure(d.loc, choices, _flatten(state)) from None
        if self.on_complete is not None:
            self.on_complete(_flatten(state))

    # The _exec helpers return True when they handled the rest of the
    # execution through recursion (i.e. the caller must stop this frame).

    def _exec_marker(self, item, work, state, choices) -> bool:
        """Run a ``("next", loop)`` marker: increment, and in range push it back under
        the body. The test and body block count here under one check: neither can fail."""
        loop = item[1]
        r, items, head = self._loops[id(loop)]
        state[loop.iterator] += r.step
        if state[loop.iterator] < r.stop:
            work.append(item)
            work += items
            self.steps += head
        else:
            self.steps += 1
        if self.steps > self.cfg.max_steps:
            raise _over_budget(self.cfg.max_steps)
        return False

    def _assign_scalar(self, name, e, work, state, choices) -> bool:
        det = self._det[id(e)]
        if det is not None:
            state[name] = det(state)
            return False
        for v, ch in self.eval(e, state, choices):
            st = _copy_state(state)
            st[name] = v
            self.run(list(work), st, ch)
        return True

    def _exec_stmt(self, s, work, state, choices) -> bool:
        # This frame recurs once per choice point, so resizing it moves CPython
        # 3.11's frame-stack chunk faults between programs (CHANGES.md FOUND).
        match s:
            case Block(stmts):
                work.extend(reversed(stmts))
                return False
            case Assign(Var(name), value):
                return self._assign_scalar(name, value, work, state, choices)
            case Assign(ArrayAccess(array, index), value):
                idx, val = self._det[id(index)], self._det[id(value)]
                if idx is not None and val is not None:
                    i = idx(state)
                    arr = state[array]
                    if not 0 <= i < len(arr):
                        raise OracleError(
                            f"index {i} out of bounds for {array}[{len(arr)}] "
                            f"at location {s.loc}"
                        )
                    arr[i] = val(state)
                    if self.on_array_access is not None:
                        self.on_array_access(array, i)
                    return False
                for i, ch1 in self.eval(index, state, choices):
                    for v, ch2 in self.eval(value, state, ch1):
                        arr = state[array]
                        if not 0 <= i < len(arr):
                            raise OracleError(
                                f"index {i} out of bounds for {array}[{len(arr)}] "
                                f"at location {s.loc}"
                            )
                        st = _copy_state(state)
                        st[array][i] = v
                        if self.on_array_access is not None:
                            self.on_array_access(array, i)
                        self.run(list(work), st, ch2)
                return True
            case ChainAssign(targets, value):
                det = self._det[id(value)]
                if det is not None:
                    v = det(state)
                    for t in targets:
                        state[t] = v
                    return False
                for v, ch in self.eval(value, state, choices):
                    st = _copy_state(state)
                    for t in targets:
                        st[t] = v
                    self.run(list(work), st, ch)
                return True
            case TernaryAssign(cond, Var(name), value, discard):
                for c, ch1 in self.eval(cond, state, choices):
                    if c != 0:
                        for v, ch2 in self.eval(value, state, ch1):
                            st = _copy_state(state)
                            st[name] = v
                            self.run(list(work), st, ch2)
                    else:
                        # Discarded side: evaluated for its choices and
                        # possible division failure only.
                        for _, ch2 in self.eval(discard, state, ch1):
                            self.run(list(work), _copy_state(state), ch2)
                return True
            case Assert(cond):
                test = self._det[id(cond)]
                if test is not None:
                    if test(state) == 0:
                        raise _Failure(s.loc, choices, _flatten(state))
                    return False
                for v, ch in self.eval(cond, state, choices):
                    if v == 0:
                        raise _Failure(s.loc, ch, _flatten(state))
                    self.run(list(work), _copy_state(state), ch)
                return True
            case If(cond, then, orelse):
                test = self._det[id(cond)]
                if test is not None:
                    taken = then if test(state) != 0 else orelse
                    if taken is not None:
                        work.append(taken)
                    return False
                for v, ch in self.eval(cond, state, choices):
                    taken = then if v != 0 else orelse
                    w = list(work) if taken is None else [*work, taken]
                    self.run(w, _copy_state(state), ch)
                return True
            case For(iterator=it):
                if id(s) not in self._stmts:
                    self._stmts[id(s)] = self._compile_stmt(s)
                det = self._stmts[id(s)]
                if det is not None:  # a choice-free loop runs as one closure
                    det(state)
                    return False
                # The For's step stands for the increment to the range's start.
                init = self._loops[id(s)][0]
                state[it] = init.start - init.step
                return self._exec_marker(("next", s), work, state, choices)
            case Break():  # leaves the loop: pops through its marker
                while work:
                    item = work.pop()
                    if isinstance(item, tuple):
                        break
                return False
            case Continue():  # ends the iteration: stops at the marker
                while work:
                    top = work[-1]
                    if isinstance(top, tuple):
                        break
                    work.pop()
                return False
        raise OracleError(f"cannot execute {type(s).__name__}")


def _too_wide(loc: int, max_steps: int) -> BudgetExceeded:
    # A choice with nothing after it costs no step: refuse one wider than the budget.
    return BudgetExceeded(f"choice at location {loc} has more than {max_steps} values")


class _Fault(Exception):
    def __init__(self, loc: int):
        self.loc = loc


def _out_of_bounds(array: str, i: int, size: int, loc: int) -> OracleError:
    return OracleError(f"index {i} out of bounds for {array}[{size}] at location {loc}")


def _over_budget(max_steps: int) -> BudgetExceeded:
    return BudgetExceeded(f"enumeration exceeded {max_steps} steps")


def _drive(p: Program, cfg: OracleConfig | None, **machine_args) -> Verdict:
    """Scale and check ``p`` under ``cfg``, run a machine over it, and turn
    its first failure into an unsafe verdict."""
    cfg = cfg or OracleConfig()
    if cfg.array_size_override is not None:
        p = scale_arrays(p, cfg.array_size_override)
    machine = _Machine(p, cfg, **machine_args)
    try:
        machine.run([p.body], _initial_state(p), [])
    except _Failure as f:
        return Verdict("unsafe", Trace(f.choices, f.loc, f.state), machine.steps)
    return Verdict("safe", steps=machine.steps)


def enumerate_runs(
    p: Program,
    cfg: OracleConfig | None = None,
    on_complete: Callable[[dict], None] | None = None,
    on_array_access: Callable[[str, int], None] | None = None,
) -> Verdict:
    """Explore every run of ``p`` under ``cfg``.

    Returns Safe, or Unsafe with the lexicographically first failing trace.
    Division or modulo by zero makes the offending run unsafe at that
    location. ``on_array_access`` observes every in-bounds array read and
    write as ``(array_name, index)``.
    """
    return _drive(p, cfg, on_complete=on_complete, on_array_access=on_array_access)


def replay_trace(
    p: Program, choices: list[int], cfg: OracleConfig | None = None
) -> Verdict:
    """Re-run ``p`` feeding ``choices`` to the nondeterministic sources.

    A trace recorded from :func:`enumerate_runs` deterministically reproduces
    its verdict, including the failing assertion location.
    """
    return _drive(p, cfg, script=list(choices))


def differential_check(
    original: Program,
    transformed: Program | None = None,
    cfg: OracleConfig | None = None,
) -> DifferentialResult:
    """Compare oracle verdicts of a program and its transformation.

    When ``cfg.array_size_override`` is set, the override is applied to the
    original first and the transformation re-derived from the scaled program,
    keeping the pair consistent. Whenever the transformation is derived here,
    one :func:`analyze_program` build about the original serves both it and
    the precision classification.
    """
    from .precision import classify_program
    from .transform import transform_with_info

    cfg = cfg or OracleConfig()
    facts = None
    if cfg.array_size_override is not None:
        original = scale_arrays(original, cfg.array_size_override)
        transformed = None
        cfg = OracleConfig(cfg.value_domain, cfg.max_steps, None)
    if transformed is None:
        facts = analyze_program(original)
        transformed = transform_with_info(original, facts).program
    return DifferentialResult(
        orig_verdict=enumerate_runs(original, cfg),
        trans_verdict=enumerate_runs(transformed, cfg),
        precise=classify_program(original, facts),
    )
