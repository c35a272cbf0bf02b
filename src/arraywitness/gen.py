"""Seeded random generator for source-grammar programs.

Feeds the differential test suite: programs stay within the fuzz envelope
(at most 2 arrays of size <= 4, at most 3 loops, nesting <= 2, constants in
[0, 3]) and never index out of bounds, so the oracle can enumerate both the
original and its transformation. A slice of the output follows a
write-then-assert template that tends to classify precise, exercising the
exactness direction as well as plain soundness.
"""

from __future__ import annotations

import random

from .astnodes import (
    ARRAY_INT,
    SCALAR_INT,
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Block,
    Break,
    Const,
    Continue,
    Decl,
    For,
    If,
    Input,
    Program,
    Read,
    Stmt,
    Var,
    assign_locs,
    clone,
    walk,
)

MAX_ARRAYS = 2
MAX_SIZE = 4
MAX_LOOPS = 3
MAX_NESTING = 2  # loops nest at most this deep
CONST_HI = 3
MAX_INPUTS = 2


_REL_OPS = ("==", "!=", "<", "<=", ">", ">=")


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.arrays: list[tuple[str, int]] = []
        self.scalars: list[str] = []
        self.loop_stack: list[tuple[str, int, int]] = []  # iterator, lo, hi
        self.loops_left = MAX_LOOPS
        self.inputs_left = MAX_INPUTS

    # -- expressions -------------------------------------------------------

    def const(self) -> Const:
        return Const(self.rng.randint(0, CONST_HI))

    def _index_for(self, size: int):
        """An index expression provably within [0, size-1]."""
        options = [Const(self.rng.randint(0, size - 1))]
        for it, lo, hi in self.loop_stack:
            if 0 <= lo and hi <= size - 1:
                options.append(Read(Var(it)))
                off = size - 1 - hi
                if off > 0 and self.rng.random() < 0.5:
                    options.append(
                        BinOp("+", Read(Var(it)), Const(self.rng.randint(1, off)))
                    )
        return self.rng.choice(options)

    def expr(self, depth: int = 0):
        roll = self.rng.random()
        if depth >= 2 or roll < 0.35:
            return self.leaf()
        if roll < 0.85:
            op = self.rng.choice(("+", "+", "-", "*"))
            return BinOp(op, self.expr(depth + 1), self.expr(depth + 1))
        # Division and modulo by a nonzero constant; rarely by a variable so
        # the oracle's division-by-zero verdicts get exercised too.
        op = self.rng.choice(("/", "%"))
        if self.scalars and self.rng.random() < 0.15:
            divisor = Read(Var(self.rng.choice(self.scalars)))
        else:
            divisor = Const(self.rng.randint(1, CONST_HI))
        return BinOp(op, self.expr(depth + 1), divisor)

    def leaf(self):
        choices = ["const"]
        if self.scalars:
            choices += ["scalar"] * 2
        if self.arrays:
            choices += ["array"] * 2
        if self.inputs_left > 0:
            choices.append("input")
        match self.rng.choice(choices):
            case "const":
                return self.const()
            case "scalar":
                return Read(Var(self.rng.choice(self.scalars)))
            case "array":
                name, size = self.rng.choice(self.arrays)
                return Read(ArrayAccess(name, self._index_for(size)))
            case _:
                self.inputs_left -= 1
                return Input()

    def cond(self):
        return BinOp(self.rng.choice(_REL_OPS), self.expr(1), self.expr(1))

    # -- statements --------------------------------------------------------

    def stmt(self, depth: int) -> Stmt:
        roll = self.rng.random()
        in_loop = bool(self.loop_stack)
        # Never assign a live iterator: the original could loop forever.
        live = {it for it, _, _ in self.loop_stack}
        targets = [s for s in self.scalars if s not in live]
        if roll < 0.35 and targets:
            return Assign(Var(self.rng.choice(targets)), self.expr())
        if roll < 0.6 and self.arrays:
            name, size = self.rng.choice(self.arrays)
            return Assign(ArrayAccess(name, self._index_for(size)), self.expr())
        if roll < 0.72:
            then = Block([self.stmt(depth) for _ in range(self.rng.randint(1, 2))])
            if self.rng.random() < 0.3:
                return If(self.cond(), then, Block([self.stmt(depth)]))
            if in_loop and self.rng.random() < 0.25:
                escape: Stmt = Break() if self.rng.random() < 0.5 else Continue()
                return If(self.cond(), Block([escape]))
            return If(self.cond(), then)
        if roll < 0.85 and self.loops_left > 0 and depth < MAX_NESTING:
            return self.loop(depth)
        return Assert(self.cond())

    def loop(self, depth: int) -> For:
        self.loops_left -= 1
        iterator = f"i{len(self.loop_stack)}"
        if iterator not in self.scalars:
            self.scalars.append(iterator)
        lo = self.rng.choice((0, 0, 0, 1))
        if self.arrays and self.rng.random() < 0.8:
            size = min(s for _, s in self.arrays)
            limit = size if self.rng.random() < 0.7 else self.rng.randint(1, size)
        else:
            limit = self.rng.randint(lo + 1, 4)
        step = 1 if self.rng.random() < 0.85 else 2
        hi = lo + ((limit - 1 - lo) // step) * step if limit > lo else lo - 1
        self.loop_stack.append((iterator, lo, hi))
        body = Block([self.stmt(depth + 1) for _ in range(self.rng.randint(1, 3))])
        self.loop_stack.pop()
        return For(
            iterator,
            Const(lo),
            BinOp("<", Read(Var(iterator)), Const(limit)),
            BinOp("+", Read(Var(iterator)), Const(step)),
            body,
        )

    # -- whole programs ----------------------------------------------------

    def random_program(self) -> Program:
        n_arrays = self.rng.randint(0, MAX_ARRAYS)
        same_size = self.rng.random() < 0.6
        size = self.rng.randint(2, MAX_SIZE)
        for idx in range(n_arrays):
            s = size if same_size else self.rng.randint(2, MAX_SIZE)
            self.arrays.append((chr(ord("a") + idx), s))
        self.scalars = ["k", "s"][: self.rng.randint(1, 2)]
        stmts = [self.stmt(0) for _ in range(self.rng.randint(1, 4))]
        if not any(_contains_assert(st) for st in stmts):
            stmts.append(Assert(self.cond()))
        return self._finish(stmts)

    def template_program(self) -> Program:
        """Write-then-assert shape over one or two same-size arrays."""
        size = self.rng.randint(2, MAX_SIZE)
        self.arrays = [("a", size)]
        two = self.rng.random() < 0.5
        if two:
            self.arrays.append(("b", size))
        self.scalars = ["i0", "k"]
        i = Read(Var("i0"))

        def f():
            match self.rng.randint(0, 3):
                case 0:
                    return i
                case 1:
                    return BinOp("+", i, self.const())
                case 2:
                    return BinOp("*", i, Const(self.rng.randint(1, 3)))
                case _:
                    return self.const()

        k_rhs = f()
        write_body: list[Stmt] = [
            Assign(Var("k"), k_rhs),
            Assign(ArrayAccess("a", i), Read(Var("k"))),
        ]
        if two:
            write_body.append(
                Assign(ArrayAccess("b", i), BinOp("*", Read(Var("k")), Read(Var("k"))))
            )
        expected = k_rhs
        if self.rng.random() < 0.3:
            # Deliberately corrupted expectation: exercises the unsafe side.
            expected = BinOp("+", k_rhs, Const(self.rng.randint(1, 2)))
        check = BinOp("==", Read(ArrayAccess("a", i)), expected)
        if two and self.rng.random() < 0.5:
            check = BinOp(
                "==",
                Read(ArrayAccess("b", i)),
                BinOp(
                    "*", Read(ArrayAccess("a", i)), Read(ArrayAccess("a", i))
                ),
            )
        stmts = [
            _counted_loop("i0", size, Block(write_body)),
            _counted_loop("i0", size, Block([Assert(check)])),
        ]
        return self._finish(stmts)

    def _finish(self, stmts: list[Stmt]) -> Program:
        decls = [Decl(name, ARRAY_INT, s) for name, s in self.arrays]
        decls += [Decl(name, SCALAR_INT) for name in self.scalars]
        # Templates reuse expression nodes; the clone gives every use its own
        # node, so each carries its own pre-order location.
        return assign_locs(clone(Program(decls, Block(stmts))))


def _counted_loop(iterator: str, limit: int, body: Block) -> For:
    return For(
        iterator,
        Const(0),
        BinOp("<", Read(Var(iterator)), Const(limit)),
        BinOp("+", Read(Var(iterator)), Const(1)),
        body,
    )


def _contains_assert(s) -> bool:
    return any(isinstance(n, Assert) for n in walk(s))


def generate_program(seed: int) -> Program:
    """Deterministic program for ``seed``; roughly 40% follow the
    write-then-assert template, the rest are free-form."""
    rng = random.Random(seed)
    g = _Gen(rng)
    if rng.random() < 0.4:
        return g.template_program()
    return g.random_program()
