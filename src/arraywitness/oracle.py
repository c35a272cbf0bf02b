"""Exhaustive small-scale interpreter for both program forms.

Enumerates every combination of nondeterministic choices (``nd()``,
``nd(l,u)`` and ``input()``) depth-first with choice values ascending, so the
first failure found is the lexicographically smallest witness. Serves as the
ground truth for the differential soundness and precision checks.

Statements run from an explicit work stack. A statement that makes no choice
is one work item, bound once per machine when its statement list is first
reached: a closure over its expressions' closures or, for a loop that holds no
break or continue, generated Python code compiled once per shape. A statement
that makes a choice forks one branch per combination of its choices; the
branches wait on a stack of forks, not on Python's call stack, so a run may
make any number of choices. Every expression compiles to one closure, which
alone implements its operators outside generated loop code; an expression with
choices runs as an odometer over its closure, once per combination of its
choices. Loops run from their constant ranges (any other loop is refused at
set-up); a loop left on the work stack runs as one item per iteration.
"""

from __future__ import annotations

import functools
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

_CHOICE_TYPES = (Nd, NdRange, Input)
_EXPR_TYPES = (Const, Read, BinOp, Ternary, *_CHOICE_TYPES)


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
    it instead of enumerating), and the odometer of the choiceful expression
    under evaluation, as ``eval`` sets it: its digits (the values of the choices
    reached), their upper bounds, the next digit to read, and the choices made
    before the expression. Closures and generated loop code hold this, not the
    machine, so no machine is part of a reference cycle."""

    __slots__ = ("steps", "limit", "script", "vals", "his", "pos", "base")

    def __init__(self, limit: int, script: list[int] | None):
        self.steps, self.limit, self.script = 0, limit, script
        self.vals, self.his, self.pos, self.base = [], [], 0, []

    def choose(self, lo: int, hi: int, loc: int) -> int:
        """The current evaluation's next digit: the odometer's, or a new one at
        ``lo``. On replay a new digit is the scripted value, its own upper bound."""
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
        # A closure for every expression node; a choice in one calls choose.
        # _det holds it only for a node that makes no choice, as _choices (the
        # choices compiled so far) tells, and None otherwise. Keyed by node
        # identity, so the machine holds on to the program whose nodes they name.
        self._program = p
        self._sizes = {d.name: d.size for d in p.decls}
        self._closures: dict[int, Callable[[dict], int]] = {}
        self._det: dict[int, Callable[[dict], int] | None] = {}
        self._choices = 0
        # Each loop's range and the steps of a true test: the test's and the body block's.
        self._loops: dict[int, tuple[range, int]] = {}
        for node in walk(p.body):
            if isinstance(node, _EXPR_TYPES):
                self._compile(node)
            elif isinstance(node, For):
                if (r := loop_bound(node)) is None:
                    raise NonConstantBound(f"loop at location {node.loc} has a non-constant bound")
                self._loops[id(node)] = (r, 1 + isinstance(node.body, Block))
        self._built: dict[int, list] = {}  # statement lists' work items, built when first reached

    def _compile(self, e) -> Callable[[dict], int]:
        """Return ``e``'s evaluation closure, compiling (and caching) its
        subexpressions first; ``_det`` gets it too unless ``e`` counted a choice."""
        key = id(e)
        if key not in self._closures:
            choices = self._choices
            self._closures[key] = fn = self._build(e)
            self._choices += isinstance(e, _CHOICE_TYPES)
            self._det[key] = fn if self._choices == choices else None
        else:  # a choiceful node met again counts for its new parent too
            self._choices += self._det[key] is None
        return self._closures[key]

    def _build(self, e) -> Callable[[dict], int]:
        match e:
            case Nd() | Input():
                choose, (lo, hi), loc = self.odo.choose, self.cfg.value_domain, e.loc
                return lambda state: choose(lo, hi, loc)
            case NdRange(lo, hi):
                choose, f, g, loc = self.odo.choose, self._compile(lo), self._compile(hi), e.loc
                return lambda state: choose(f(state), g(state), loc)
            case Const(value):
                return lambda state: value
            case Read(Var(name)):
                return lambda state: state[name]
            case Read(ArrayAccess(array, index)):
                self._compile(index)
                return self._read_closure(array, index, e.loc)
            case BinOp(op, lhs, rhs):
                return _binop_closure(op, self._compile(lhs), self._compile(rhs), e.loc)
            case Ternary(cond, then, orelse):
                c, t, o = (self._compile(x) for x in (cond, then, orelse))
                return lambda state: t(state) if c(state) != 0 else o(state)
        raise OracleError(f"cannot evaluate {type(e).__name__}")

    def _read_closure(self, array: str, index, loc: int) -> Callable[[dict], int]:
        # An index that is a plain variable is read directly.
        var, idx, notify = _read_var(index), self._closures[id(index)], self.on_array_access
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

    # -- expression evaluation --------------------------------------------

    def eval(self, e, state, choices: list[int]) -> Iterator[tuple[int, list[int]]]:
        """Enumerate the possible values of ``e``, threading choice lists.

        A choiceful ``e`` runs as an odometer over its closure: each call reads
        one digit per choice it reaches, and the last digit turns fastest, so
        values come out in lexicographic order of their choices."""
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
        fn, vals, his, odo = self._closures[id(e)], [], [], self.odo
        while True:
            # Between two yields the fork stack runs a branch, which evaluates: reset the odometer.
            odo.vals, odo.his, odo.pos, odo.base = vals, his, 0, choices
            try:
                v = fn(state)
            except _Empty:  # no value on this branch: advance past it
                pass
            except _Fault as d:
                raise _Failure(d.loc, choices + vals, _flatten(state)) from None
            else:
                yield v, choices + vals
            while vals and vals[-1] == his[-1]:
                del vals[-1], his[-1]
            if not vals:
                return
            vals[-1] += 1

    # -- statement execution ----------------------------------------------

    def run(self, work: list, state: dict, choices: list[int]) -> None:
        """Execute the work stack and, depth first, each branch a statement forks;
        raises _Failure on the first failing run, returns after all completed safely."""
        odo, limit = self.odo, self.odo.limit
        forks = [(iter([(state, choices, None)]), work)]  # branches left, the work beneath
        while forks:
            branches, beneath = forks[-1]
            for state, choices, push in branches:
                work = list(beneath) if push is None else [*beneath, push]
                while work:
                    odo.steps += 1
                    if odo.steps > limit:
                        raise _over_budget(limit)
                    try:
                        if callable(item := work.pop()):  # a choice-free statement, run in place
                            item(state)
                        elif (fork := self._exec_stmt(item, work, state, choices)) is not None:
                            forks.append((fork, work))
                            break
                    except _Fault as d:
                        raise _Failure(d.loc, choices, _flatten(state)) from None
                else:
                    if self.on_complete is not None:
                        self.on_complete(_flatten(state))
                    continue
                break  # a new fork: run its branches first
            else:
                forks.pop()

    def _items(self, s) -> list:
        """The work items of a Block's statements, or of ``s`` alone, last first; built once."""
        if (items := self._built.get(id(s))) is None:
            stmts = s.stmts if isinstance(s, Block) else [s]
            items = self._built[id(s)] = [self._bind(x) for x in reversed(stmts)]
        return items

    def _branch(self, s):
        """An If's branch as one work item; a Block expands, counting its step, when popped."""
        return s if s is None or isinstance(s, Block) else self._items(s)[0]

    def _bind(self, s):
        """``s`` as a work item: if choice-free, a closure over its expressions' closures
        (a loop's generated code) that runs it in place on a state; else ``s`` itself."""
        det, notify = self._det, self.on_array_access
        match s:
            case Assign(Var(name), value) if val := det[id(value)]:
                def item(state):
                    state[name] = val(state)
            case ChainAssign(targets, value) if val := det[id(value)]:
                def item(state):
                    v = val(state)
                    for t in targets:
                        state[t] = v
            case Assign(ArrayAccess(array, index), value, loc) if (idx := det[id(index)]) and (
                    val := det[id(value)]):
                def item(state):
                    i, arr = idx(state), state[array]
                    if not 0 <= i < len(arr):
                        raise _out_of_bounds(array, i, len(arr), loc)
                    arr[i] = val(state)
                    if notify is not None:
                        notify(array, i)
            case TernaryAssign(cond, Var(name), value, discard) if None not in (
                    test := det[id(cond)], val := det[id(value)], other := det[id(discard)]):
                def item(state):  # the discarded side runs for its possible division failure only
                    if test(state) != 0:
                        state[name] = val(state)
                    else:
                        other(state)
            case Assert(cond, loc) if test := det[id(cond)]:
                def item(state):
                    if test(state) == 0:
                        raise _Fault(loc)
            case For():
                return _LoopSource(self).bind(s) or s
            case _:
                return s
        return item

    def _exec_stmt(self, s, work, state, choices) -> Iterator | None:
        """Steer the work stack by ``s``, a node that ``_bind`` left or a loop's
        marker, or return ``s``'s branches if it makes a choice."""
        match s:
            case ("next", loop, items):  # increment, and in range push back under the body
                r, head = self._loops[id(loop)]
                state[loop.iterator] += r.step
                if state[loop.iterator] < r.stop:
                    work.append(s)
                    work += items
                    self.odo.steps += head  # the test and the body block: neither can fail
                else:
                    self.odo.steps += 1
                if self.odo.steps > self.odo.limit:
                    raise _over_budget(self.odo.limit)
            case Block():
                work += self._items(s)
            case Assign(Var(name), value):
                return self._assigning(value, (name,), state, choices)
            case Assign(ArrayAccess(array, index), value):
                return self._storing(array, index, value, s.loc, state, choices)
            case ChainAssign(targets, value):
                return self._assigning(value, targets, state, choices)
            case Assert(cond):
                return self._testing(cond, s.loc, None, None, state, choices)
            case If(cond, then, orelse):
                if (test := self._det[id(cond)]) is None:
                    return self._testing(cond, None, then, orelse, state, choices)
                if (taken := then if test(state) != 0 else orelse) is not None:
                    work.append(self._branch(taken))
            case TernaryAssign(cond, Var(name), value, discard):
                return self._guarding(cond, name, value, discard, state, choices)
            case For(iterator=it, body=body):  # its step stands for the increment to the range's start
                init = self._loops[id(s)][0]
                state[it] = init.start - init.step
                self._exec_stmt(("next", s, self._items(body)), work, state, choices)
            case Break():  # leaves the loop: pops through its marker
                while work:
                    item = work.pop()
                    if isinstance(item, tuple):
                        break
            case Continue():  # ends the iteration: stops at the marker
                while work:
                    top = work[-1]
                    if isinstance(top, tuple):
                        break
                    work.pop()
            case _:
                raise OracleError(f"cannot execute {type(s).__name__}")
        return None

    # A choiceful statement's branches, in DFS order: each is a state, its
    # choices, and the item it pushes on the work beneath (or None).

    def _assigning(self, value, targets, state, choices) -> Iterator[tuple]:
        for v, ch in self.eval(value, state, choices):
            st = _copy_state(state)
            for t in targets:
                st[t] = v
            yield st, ch, None

    def _storing(self, array, index, value, loc, state, choices) -> Iterator[tuple]:
        for i, ch1 in self.eval(index, state, choices):
            if not 0 <= i < len(state[array]):
                raise _out_of_bounds(array, i, len(state[array]), loc)
            for v, ch2 in self.eval(value, state, ch1):
                st = _copy_state(state)
                st[array][i] = v
                if self.on_array_access is not None:
                    self.on_array_access(array, i)
                yield st, ch2, None

    def _guarding(self, cond, name, value, discard, state, choices) -> Iterator[tuple]:
        for c, ch1 in self.eval(cond, state, choices):
            # The discarded side is evaluated for its choices and possible division failure only.
            for v, ch2 in self.eval(value if c != 0 else discard, state, ch1):
                st = _copy_state(state)
                if c != 0:
                    st[name] = v
                yield st, ch2, None

    def _testing(self, cond, fails_at, then, orelse, state, choices) -> Iterator[tuple]:
        """An ``If``'s branches, or an ``Assert``'s when it ``fails_at`` a location."""
        for v, ch in self.eval(cond, state, choices):
            if v == 0 and fails_at is not None:
                raise _Failure(fails_at, ch, _flatten(state))
            yield _copy_state(state), ch, self._branch(then if v != 0 else orelse)


class _LoopSource:
    """Python source for one choice-free loop. Each name and number of the program enters as
    an argument ``v<k>``, never as text, so loops of one shape share a code object. A nested
    loop is its own function (CPython refuses over 20 nested loops in one), and an expression
    is inlined with at most one level of parentheses per node (it refuses over 200)."""

    def __init__(self, machine: _Machine):
        self.machine, self.det, self.notify = machine, machine._det, machine.on_array_access
        self.args: list = []
        self.keys: dict = {}  # a name, or (array,) for its size -> its argument
        self.arrays: dict[str, str] = {}  # local holding an array's list -> its name's argument
        self.lines: list[str] = []  # the loop function's body

    def bind(self, loop: For) -> Callable[[dict], None] | None:
        """The loop, run in place on a state; None if it stays on the work stack."""
        r, head = self.machine._loops[id(loop)]
        stmts = loop.body.stmts if isinstance(loop.body, Block) else [loop.body]
        # The local i mirrors the iterator: every write here sets both, and i
        # is read back from the state after a nested loop, which may write it.
        self.iterator, pad = loop.iterator, " " * 12
        it = self.it = self.arg(loop.iterator, loop.iterator)
        self.lines += [f"        state[{it}] = i = {self.arg(r.start)}",
                       f"        ticks = {head + 1}", f"        while i < {self.arg(r.stop)}:"]
        # The first statement counts the test's, the body block's and then the increment's steps.
        if not stmts or not all(self.ticked(s, pad, "1" if n else "ticks")
                                for n, s in enumerate(stmts)):
            return None
        self.lines += [f"{pad}state[{it}] = i = i + {self.arg(r.step)}",
                       f"{pad}ticks = {head + 2}", f"        m.steps += ticks - {head}",
                       "        if m.steps > limit: raise _over_budget(limit)"]
        params = ", ".join(f"v{k}" for k in range(len(self.args)))
        source = "\n".join([f"def bind(m, notify, {params}):", "    limit = m.limit",
                            "    def loop(state):",
                            *(f"        {a} = state[{n}]" for a, n in self.arrays.items()),
                            *self.lines, "    return loop"])
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

    def ticked(self, s, pad: str, ticks: str = "1") -> bool:
        """Count ``s``'s step, check the budget, append ``s``; False if it needs the work stack."""
        det, out, inner = self.det, self.lines, pad + "    "
        out += [f"{pad}m.steps += {ticks}", f"{pad}if m.steps > limit: raise _over_budget(limit)"]
        match s:
            case Block(stmts):
                return all(self.ticked(x, pad) for x in stmts)
            case For():
                run = _LoopSource(self.machine).bind(s)
                out += [f"{pad}{self.arg(run)}(state)", f"{pad}i = state[{self.it}]"]
                return run is not None
            case If(cond, then, orelse) if det[id(cond)] is not None:
                out.append(f"{pad}if {self.expr(cond, True)}:")
                ok = self.ticked(then, inner)
                out.append(f"{pad}else:" if orelse is not None else f"{pad}else: pass")
                return ok and (orelse is None or self.ticked(orelse, inner))
            case Assign(Var(name), value) if det[id(value)] is not None:
                alias = "i = " if name == self.iterator else ""
                out.append(f"{pad}state[{self.arg(name, name)}] = {alias}{self.expr(value)}")
                return True
            case Assign(ArrayAccess(array, index), value) if det[id(index)] and det[id(value)]:
                a, n, size = self.array(array)
                out += [f"{pad}k = {self.expr(index)}",
                        f"{pad}if not 0 <= k < {size}: _oob({n}, k, {size}, {self.arg(s.loc)})",
                        f"{pad}{a}[k] = {self.expr(value)}", f"{pad}if notify: notify({n}, k)"]
                return True
            case Assert(cond) if det[id(cond)] is not None:
                test = self.expr(cond, True)
                out.append(f"{pad}if not ({test}): raise _Fault({self.arg(s.loc)})")
                return True
        return False

    def expr(self, e, test: bool = False, wrap: bool = False) -> str:
        """``e`` as Python text, an int except in a ``test``, parenthesised for ``wrap``."""
        match e:
            case Const(value):
                return self.arg(value)
            case Read(Var(name)):
                return "i" if name == self.iterator else f"state[{self.arg(name, name)}]"
            case BinOp("/" | "%" as op, lhs, rhs):
                return f"_divide({op!r}, {self.expr(lhs)}, {self.expr(rhs)}, {self.arg(e.loc)})"
            case Read(ArrayAccess(array, index)):
                a, n, size = self.array(array)
                cell = f"(notify({n}, t), {a}[t])[1]" if self.notify else f"{a}[t]"
                text = (f"{cell} if 0 <= (t := {self.expr(index)}) < {size} "
                        f"else _oob({n}, t, {size}, {self.arg(e.loc)})")
            case BinOp(op, lhs, rhs):
                logic = {"&&": "and", "||": "or"}.get(op)
                lhs, rhs = self.expr(lhs, bool(logic), True), self.expr(rhs, bool(logic), True)
                text = f"{lhs} {logic or op} {rhs}"
                text = text if test or op in _ARITH else f"1 if {text} else 0"
            case Ternary(cond, then, orelse):
                then, orelse = self.expr(then, wrap=True), self.expr(orelse, wrap=True)
                text = f"{then} if {self.expr(cond, True, True)} else {orelse}"
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
        machine.run([p.body], _initial_state(p), [])
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
    write as ``(array_name, index)``; a read in an expression that makes
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
