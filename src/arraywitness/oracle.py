"""Exhaustive small-scale interpreter for both program forms.

Enumerates every combination of nondeterministic choices (``nd()``,
``nd(l,u)`` and ``input()``) depth-first with choice values ascending, so the
first failure found is the lexicographically smallest witness. Serves as the
ground truth for the differential soundness and precision checks.

Statements run from an explicit work stack. Every statement is bound once per
machine, when it is built, in one pass over the program, to one work item that
runs it on a state and the work stack beneath it. Binding a statement compiles
the expressions it runs, each to one closure, which alone implements its
operators outside generated loop code. A statement whose own expressions make a
choice is a fork: its closure runs as an odometer, once per combination of the
choices it reaches, on a copy of the state and work before it. Forks wait on a
stack of their own, so a run may make any number of choices. Loops run from
their constant ranges (any other loop is refused at set-up). An innermost loop
without a choice, break or continue that never writes its iterator is Python
code generated once per shape, and compiles no closures; it runs on locals and
drops the bounds check of an index that is its iterator when its range lies
inside the array. Other loops take one work item per iteration.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

from .analysis import ARRAY_INT, analyze_program, loop_bound
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
    _read_var,
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
_LOGIC = {"&&": "and", "||": "or"}  # as generated loop code spells them


def _divide(op: str, a: int, b: int, loc: int) -> int:
    """``a / b`` or ``a % b`` with C semantics; a zero divisor fails the run at ``loc``."""
    if b == 0:
        raise _Fault(loc)
    return _DIVIDE[op](a, b)


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
    if op in _DIVIDE:
        return lambda state: _divide(op, f(state), g(state), loc)
    raise OracleError(f"unknown operator {op!r}")


def scale_arrays(p: Program, new_size: int) -> Program:
    """Copy of ``p`` with every array resized to ``new_size``.

    Loop-test bounds and whole index literals (``a[N-1]``) equal to an original
    size, or size minus one, track the new size. No other constant changes (not
    a step, not scalar arithmetic, never a 0). Ambiguous mappings, and index
    literals that the new size leaves out of bounds, are rejected.
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
    sites = [(n, n.index if isinstance(n, ArrayAccess) else n.test.rhs) for n in walk(q.body)
             if isinstance(n, ArrayAccess) or isinstance(n, For) and isinstance(n.test, BinOp)]
    for n, c in sites:
        if isinstance(c, Const) and c.value in mapping:
            c.value = mapping[c.value]
        if isinstance(n, ArrayAccess) and isinstance(c, Const) and c.value >= new_size:
            raise OracleError(f"index literal {c.value} of array {n.array} is not below "
                              f"the array size override {new_size}")
    return q


def _initial_state(p: Program) -> dict:
    return {d.name: [0] * d.size if d.kind == ARRAY_INT else 0 for d in p.decls}


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


class _Odometer:
    """The step counter, a replay's script of choices (choice points then consume
    it instead of enumerating), and the odometer of the fork under way, as
    ``run`` sets it before each run of a fork's closure: its digits (the values
    of the choices reached), their upper bounds, the next digit to read, and the
    choices made before the statement. Closures and generated loop code hold
    this, not the machine, so no machine is part of a reference cycle."""

    __slots__ = ("steps", "limit", "script", "vals", "his", "pos", "base")

    def __init__(self, limit: int, script: list[int] | None):
        self.steps, self.limit, self.script = 0, limit, script
        self.vals, self.his, self.pos, self.base = [], [], 0, []

    def choose(self, lo: int, hi: int, loc: int) -> int:
        """The fork's next digit: the odometer's, or a new one at ``lo``. On
        replay a new digit is the scripted value, its own upper bound."""
        vals, pos = self.vals, self.pos
        self.pos = pos + 1
        if pos < len(vals):
            return vals[pos]
        if self.script is not None:
            pos += len(self.base)
            if pos >= len(self.script):
                raise OracleError(f"trace exhausted at choice {pos} (location {loc})")
            v = self.script[pos]
            if not lo <= v <= hi:
                raise OracleError(f"scripted value {v} outside [{lo}, {hi}] at location {loc}")
            lo = hi = v
        elif hi < lo:
            raise _Empty
        elif hi - lo >= self.limit:
            raise _too_wide(loc, self.limit)
        vals.append(lo)
        self.his.append(hi)
        return lo


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
        self.on_array_access = on_array_access
        self.odo = _Odometer(cfg.max_steps, script)
        self._sizes = {d.name: d.size for d in p.decls}
        # One pass binds every statement and compiles the expressions it runs, so a
        # non-constant loop anywhere is refused before any run.
        self._root = self._bind(p.body)

    def _compile(self, e) -> tuple[Callable[[dict], int], bool]:
        """``e``'s evaluation closure, and whether it makes a choice. Each use of a
        node compiles it anew, so two statements that share one draw their own."""
        t = type(e)
        if t is Read:
            if type(e.lv) is Var:
                name = e.lv.name
                return (lambda state: state[name]), False
            if type(e.lv) is ArrayAccess:
                return self._read_closure(e.lv.array, e.lv.index, e.loc)
        elif t is BinOp:
            (f, a), (g, b) = self._compile(e.lhs), self._compile(e.rhs)
            return _binop_closure(e.op, f, g, e.loc), a or b
        elif t is Const:
            value = e.value
            return (lambda state: value), False
        elif t is Ternary:
            (c, a), (then, b), (orelse, d) = (self._compile(x) for x in (e.cond, e.then, e.orelse))
            return (lambda state: then(state) if c(state) != 0 else orelse(state)), a or b or d
        elif t is Nd or t is Input:
            choose, (lo, hi), loc = self.odo.choose, self.cfg.value_domain, e.loc
            return (lambda state: choose(lo, hi, loc)), True
        elif t is NdRange:
            (f, _), (g, _) = self._compile(e.lo), self._compile(e.hi)
            choose, loc = self.odo.choose, e.loc
            return (lambda state: choose(f(state), g(state), loc)), True
        raise OracleError(f"cannot evaluate {type(e).__name__}")

    def _read_closure(self, array: str, index, loc: int) -> tuple[Callable[[dict], int], bool]:
        (idx, choice), notify, size = self._compile(index), self.on_array_access, self._sizes[array]

        def read(state):
            i = idx(state)
            arr = state[array]
            if not 0 <= i < size:
                raise _out_of_bounds(array, i, size, loc)
            if notify is not None:
                notify(array, i)
            return arr[i]

        return read, choice

    # -- statement execution ----------------------------------------------

    def run(self, state: dict) -> None:
        """Run the program from ``state`` and, depth first, every branch of its
        forks; raise _Failure on the first failing run, return after all completed
        safely. Each popped item counts one step; a fork's runs of its closure count none."""
        odo, limit = self.odo, self.odo.limit
        forks: list[tuple] = []  # closure, digits, their bounds; choices, state, work before it
        work, choices = [self._root], []
        while True:
            while work:
                odo.steps += 1
                if odo.steps > limit:
                    raise _over_budget(limit)
                try:
                    fork = work.pop()(state, work)
                except _Fault as d:
                    raise _Failure(d.loc, choices, _flatten(state)) from None
                if fork is not None:
                    forks.append((fork, [], [], choices, state, work))
                    break
            else:
                if self.on_complete is not None:
                    self.on_complete(_flatten(state))
            if (branch := self._next_branch(forks)) is None:
                return
            state, work, choices = branch

    def _next_branch(self, forks: list) -> tuple | None:
        """The innermost fork's next branch, run through the fork's statement: its
        state, work and choices; None when every fork is done.

        A fork's closure runs as an odometer on a copy of the state and work before
        it: each run reads one digit per choice it reaches, the last digit turns
        fastest, and a run that meets an empty ``nd(lo, hi)`` advances past its branch."""
        odo = self.odo
        while forks:
            fn, vals, his, base, before, beneath = forks[-1]
            odo.vals, odo.his, odo.pos, odo.base = vals, his, 0, base
            state, work = _copy_state(before), list(beneath)
            try:
                fn(state, work)
            except _Empty:  # no value on this branch: advance past it
                state = None
            except _Fault as d:  # with the digits read, so that its replay fails there too
                raise _Failure(d.loc, base + vals, _flatten(before)) from None
            choices = base + vals
            while vals and vals[-1] == his[-1]:
                del vals[-1], his[-1]
            if vals:
                vals[-1] += 1
            else:
                forks.pop()
            if state is not None:
                return state, work, choices
        return None

    def _bind(self, s) -> Callable[[dict, list], Callable | None]:
        """``s`` as its work item, which runs it on a state and the work stack
        beneath it. If ``s``'s own expressions make a choice, the item is a fork:
        it returns the closure that ``run`` re-runs once per combination of them."""
        build, notify, choice = self._compile, self.on_array_access, False
        t = type(s)
        if t is Assign and type(s.target) is Var:
            name, (val, choice) = s.target.name, build(s.value)

            def stmt(state, work):
                state[name] = val(state)
        elif t is Block:
            items = [self._bind(x) for x in s.stmts][::-1]

            def stmt(state, work):
                work += items
        elif t is If:
            test, choice = build(s.cond)
            then, orelse = self._bind(s.then), None if s.orelse is None else self._bind(s.orelse)

            def stmt(state, work):
                if (taken := then if test(state) != 0 else orelse) is not None:
                    work.append(taken)
        elif t is Assert:
            (test, choice), loc = build(s.cond), s.loc

            def stmt(state, work):
                if test(state) == 0:
                    raise _Fault(loc)
        elif t is Assign and type(s.target) is ArrayAccess:
            array, loc = s.target.array, s.loc
            (idx, a), (val, b) = build(s.target.index), build(s.value)
            choice = a or b

            def stmt(state, work):
                i, arr = idx(state), state[array]
                if not 0 <= i < len(arr):
                    raise _out_of_bounds(array, i, len(arr), loc)
                arr[i] = val(state)
                if notify is not None:
                    notify(array, i)
        elif t is For:  # generated code, or an entry item and a marker
            if (r := loop_bound(s)) is None:
                raise NonConstantBound(f"loop at location {s.loc} has a non-constant bound")
            it, body = s.iterator, s.body
            head = 1 + isinstance(body, Block)  # a true test's steps, with the block's
            if run := _LoopSource(self).bind(s, r, head):
                return run
            body = body.stmts if isinstance(body, Block) else [body]
            marker = _Marker(self.odo, it, r, head, [self._bind(x) for x in body][::-1])

            def stmt(state, work):  # its step stands for the increment to the range's start
                state[it] = r.start - r.step
                marker(state, work)
        elif t is TernaryAssign and type(s.target) is Var:
            name = s.target.name
            (test, a), (val, b), (other, c) = (build(e) for e in (s.cond, s.value, s.discard))
            choice = a or b or c

            def stmt(state, work):  # the discarded side runs for its choices and faults only
                if test(state) != 0:
                    state[name] = val(state)
                else:
                    other(state)
        elif t is ChainAssign:
            targets, (val, choice) = s.targets, build(s.value)

            def stmt(state, work):
                v = val(state)
                for t in targets:
                    state[t] = v
        elif t is Break:
            def stmt(state, work):  # leaves the loop: pops through its marker
                while work and not isinstance(work.pop(), _Marker):
                    pass
        elif t is Continue:
            def stmt(state, work):  # ends the iteration: stops at its marker
                while work and not isinstance(work[-1], _Marker):
                    work.pop()
        else:
            raise OracleError(f"cannot execute {type(s).__name__}")
        if choice:
            return lambda state, work: stmt
        return stmt


class _Marker:
    """A loop's place on the work stack, under each iteration's body. Popped, it
    increments the iterator and, while in range, pushes itself back under the
    body's items. ``break`` and ``continue`` find it by its type."""

    __slots__ = ("odo", "iterator", "range", "head", "items")

    def __init__(self, odo: _Odometer, iterator: str, r: range, head: int, items: list):
        self.odo, self.iterator, self.range, self.head, self.items = odo, iterator, r, head, items

    def __call__(self, state: dict, work: list) -> None:
        odo, r = self.odo, self.range
        state[self.iterator] += r.step
        if state[self.iterator] < r.stop:
            work.append(self)
            work += self.items
            odo.steps += self.head  # the test and the body block: neither can fail
        else:
            odo.steps += 1
        if odo.steps > odo.limit:
            raise _over_budget(odo.limit)


class _LoopSource:
    """Python source for one choice-free loop that holds no loop and never writes its iterator. It
    runs as ``for i in <range>`` on locals (the iterator, the step count ``s`` and each array's
    list) and writes ``s`` and ``i`` back in one ``finally``; an access indexed by the bare iterator
    has no bounds check when the range lies inside the array. Each name and number of the program
    enters as an argument ``v<k>``, never as text, so loops of one shape share a code object. An
    expression is inlined with at most one level of parentheses per node (CPython refuses 200)."""

    def __init__(self, machine: _Machine):
        self.machine, self.notify = machine, machine.on_array_access
        self.args: list = []
        self.keys: dict = {}  # a name, or (array,) for its size -> its argument
        self.arrays: dict[str, str] = {}  # local holding an array's list -> its name's argument
        self.lines: list[str] = []  # the loop function's body

    def bind(self, loop: For, r: range, head: int) -> Callable[[dict], None] | None:
        """The loop over ``r``, whose true test counts ``head`` steps, run in place on a
        state; None if it stays on the work stack."""
        if not (stmts := loop.body.stmts if isinstance(loop.body, Block) else [loop.body]):
            return None
        self.iterator, self.range = loop.iterator, r
        it = self.arg(loop.iterator, loop.iterator)
        # s starts one short: an iteration's first statement also counts the increment before
        # it, the test and the body block; the exit counts the last increment and test.
        self.lines.append(f"            for i in {self.arg(r)}:")
        try:
            for n, x in enumerate(stmts):
                self.ticked(x, " " * 16, str(head + 2) if n == 0 else "1")
        except _NotInline:
            return None
        end = self.arg(r.start + len(r) * r.step)  # the iterator's value after the loop
        self.lines += [f"            i = {end}", "            s += 2",
                       "            if s > limit: raise _over_budget(limit)", "        finally:",
                       "            m.steps = s", f"            state[{it}] = i"]
        params = ", ".join(f"v{k}" for k in range(len(self.args)))
        source = "\n".join([f"def bind(m, notify, {params}):", "    limit = m.limit",
                            "    def loop(state, work):",
                            *(f"        {a} = state[{n}]" for a, n in self.arrays.items()),
                            "        s = m.steps - 1", "        try:", *self.lines,
                            "    return loop"])
        return _loop_template(source)(self.machine.odo, self.notify, *self.args)

    def arg(self, value, key=None) -> str:  # one per key, a fresh one without
        if key is None or key not in self.keys:
            self.args.append(value)
            self.keys[key] = f"v{len(self.args) - 1}"
        return self.keys[key]

    def array(self, name: str) -> tuple[str, str, str]:  # its list's local, name and size
        n = self.arg(name, name)
        self.arrays["a" + n[1:]] = n
        return "a" + n[1:], n, self.arg(self.machine._sizes[name], (name,))

    def proven(self, index, array: str) -> bool:  # the bare iterator, its range inside array
        r, size = self.range, self.machine._sizes[array]
        return _read_var(index) == self.iterator and (not r or 0 <= r.start and r[-1] < size)

    def ticked(self, s, pad: str, ticks: str = "1") -> None:
        """Count ``s``'s step, check the budget and append ``s``, or raise _NotInline."""
        out, inner = self.lines, pad + "    "
        out += [f"{pad}s += {ticks}", f"{pad}if s > limit: raise _over_budget(limit)"]
        t = type(s)
        if t is Assign and type(s.target) is Var and s.target.name != self.iterator:
            name = s.target.name
            out.append(f"{pad}state[{self.arg(name, name)}] = {self.expr(s.value)}")
        elif t is Assign and type(s.target) is ArrayAccess:
            array, index = s.target.array, s.target.index
            a, n, size = self.array(array)
            k = "i" if self.proven(index, array) else "k"
            if k == "k":
                out += [f"{pad}k = {self.expr(index)}",
                        f"{pad}if not 0 <= k < {size}: _oob({n}, k, {size}, {self.arg(s.loc)})"]
            out.append(f"{pad}{a}[{k}] = {self.expr(s.value)}")
            out += [f"{pad}notify({n}, {k})"] if self.notify else []
        elif t is Block:
            for x in s.stmts:
                self.ticked(x, pad)
        elif t is If:
            out.append(f"{pad}if {self.expr(s.cond, True)}:")
            self.ticked(s.then, inner)
            out.append(f"{pad}else:" if s.orelse is not None else f"{pad}else: pass")
            if s.orelse is not None:
                self.ticked(s.orelse, inner)
        elif t is Assert:
            test = self.expr(s.cond, True)
            out.append(f"{pad}if not ({test}): raise _Fault({self.arg(s.loc)})")
        else:
            raise _NotInline

    def expr(self, e, test: bool = False, wrap: bool = False) -> str:
        """``e`` as Python text, an int except in a ``test``, parenthesised for ``wrap``;
        raise _NotInline at a choice, or at anything else only the closures handle."""
        t = type(e)
        if t is Read and type(e.lv) is Var:
            name = e.lv.name
            return "i" if name == self.iterator else f"state[{self.arg(name, name)}]"
        elif t is Const:
            return self.arg(e.value)
        elif t is BinOp and e.op in _DIVIDE:
            return f"_divide({e.op!r}, {self.expr(e.lhs)}, {self.expr(e.rhs)}, {self.arg(e.loc)})"
        elif t is BinOp and (e.op in _ARITH or e.op in _COMPARE or e.op in _LOGIC):
            op, logic = e.op, _LOGIC.get(e.op)
            lhs, rhs = self.expr(e.lhs, bool(logic), True), self.expr(e.rhs, bool(logic), True)
            text = f"{lhs} {logic or op} {rhs}"
            text = text if test or op in _ARITH else f"1 if {text} else 0"
        elif t is Read and type(e.lv) is ArrayAccess:
            array, index = e.lv.array, e.lv.index
            a, n, size = self.array(array)
            k = "i" if self.proven(index, array) else "t"
            text = f"(notify({n}, {k}), {a}[{k}])[1]" if self.notify else f"{a}[{k}]"
            if k == "t":
                text = (f"{text} if 0 <= (t := {self.expr(index)}) < {size} "
                        f"else _oob({n}, t, {size}, {self.arg(e.loc)})")
        else:
            raise _NotInline
        return f"({text})" if wrap else text


@functools.lru_cache
def _loop_template(source: str) -> Callable:
    """Compile a loop's source once per shape; the result binds its arguments."""
    exec(compile(source, "<loop>", "exec"), globals(), scope := {})
    return scope["bind"]


def _oob(array: str, i: int, size: int, loc: int):
    raise _out_of_bounds(array, i, size, loc)


def _too_wide(loc: int, max_steps: int) -> BudgetExceeded:
    # A choice with nothing after it costs no step: refuse one wider than the budget.
    return BudgetExceeded(f"choice at location {loc} has more than {max_steps} values")


class _NotInline(Exception):
    """What generated loop code cannot inline; its loop stays on the work stack."""


class _Empty(Exception):
    """An ``nd(lo, hi)`` with ``hi < lo``: the expression has no value on this branch."""


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
        machine.run(_initial_state(p))
    except _Failure as f:
        return Verdict("unsafe", Trace(f.choices, f.loc, f.state), machine.odo.steps)
    return Verdict("safe", steps=machine.odo.steps)


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
    write as ``(array_name, index)``; an access in a statement that makes
    choices, once per combination of them.
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
    keeping the pair consistent; a ``transformed`` given with it raises
    ``ValueError``. Whenever the transformation is derived here,
    one :func:`analyze_program` build about the original serves both it and
    the precision classification.
    """
    from .precision import classify_program
    from .transform import transform_with_info

    cfg = cfg or OracleConfig()
    facts = None
    if cfg.array_size_override is not None:
        if transformed is not None:
            raise ValueError("a size override re-derives the transformation; pass no transformed")
        original = scale_arrays(original, cfg.array_size_override)
        cfg = OracleConfig(cfg.value_domain, cfg.max_steps, None)
    if transformed is None:
        facts = analyze_program(original)
        transformed = transform_with_info(original, facts).program
    return DifferentialResult(
        orig_verdict=enumerate_runs(original, cfg),
        trans_verdict=enumerate_runs(transformed, cfg),
        precise=classify_program(original, facts),
    )
