"""Rewrites array-manipulating loop programs into loop-free, array-free form.

Every array gets a witness pair: a witness index fixed once per run by
``nd(0, size-1)`` and a witness variable standing for the element at that
index. Array accesses become guarded uses of the witness variable; loop
bodies are kept (once) while loop headers are dropped, with nondeterministic
re-assignments over-approximating the effect of the removed iterations.

The output is built of new nodes, each leaf of the source that it keeps
copied, so the source program is left as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import ArrayInfo, LoopSummary, ProgramFacts, _fresh, analyze_program
from .astnodes import (
    ARRAY_INT,
    SCALAR_INT,
    ArrayAccess,
    Assert,
    Assign,
    BinOp,
    Block,
    Break,
    ChainAssign,
    Const,
    Continue,
    Decl,
    For,
    If,
    Nd,
    NdRange,
    Program,
    Read,
    Stmt,
    Ternary,
    TernaryAssign,
    Var,
    assign_locs,
    clone,
    mentions,
)


class TransformError(Exception):
    pass


@dataclass
class TransformContext:
    arrays: dict[str, ArrayInfo]
    summaries: dict[int, LoopSummary]
    decl_order: dict[str, int]
    aux_decls: list[Decl]
    taken_names: set[str]
    # The iterator nd-assigns added after loops, by id. Held here, a pruned
    # one is never freed, so no later node can take its id.
    trailing_nds: dict[int, Assign]


@dataclass
class TransformResult:
    program: Program
    witness_indices: list[str]


def _read(name: str):
    return Read(Var(name))


def transform_expr(e, ctx: TransformContext):
    match e:
        case BinOp(op, lhs, rhs):
            return BinOp(op, transform_expr(lhs, ctx), transform_expr(rhs, ctx))
        case Read(ArrayAccess(array, index)):
            info = ctx.arrays[array]
            return Ternary(
                BinOp("==", transform_expr(index, ctx), _read(info.witness_idx)),
                _read(info.witness_var),
                Nd(),
            )
        case Read(Var(name)):
            return _read(name)
        case Const(value):
            return Const(value)
        case _:  # input()
            return clone(e)


def _nd_assign(name: str, ctx: TransformContext) -> Assign:
    """u = nd(); array members target their witness variable."""
    if name in ctx.arrays:
        return Assign(Var(ctx.arrays[name].witness_var), Nd())
    return Assign(Var(name), Nd())


def _defs_in_order(summary: LoopSummary, ctx: TransformContext) -> list[str]:
    return sorted(summary.defs, key=lambda n: ctx.decl_order.get(n, len(ctx.decl_order)))


def _iterator_nd_bound(summary: LoopSummary, ctx: TransformContext):
    """nd range for the iterator of a non-full-access loop."""
    bound = summary.bound
    if bound:
        return NdRange(Const(bound[0]), Const(bound[-1]))
    if bound is not None:
        # Unsatisfiable range: the guarded body contributes no behavior,
        # matching the zero-trip original.
        return NdRange(Const(1), Const(0))
    if len(summary.accessed_arrays) == 1:
        info = ctx.arrays[summary.accessed_arrays[0]]
        return NdRange(Const(0), Const(info.lastof))
    return Nd()


def _fresh_scalar(base: str, ctx: TransformContext) -> str:
    name = _fresh(base, ctx.taken_names)
    ctx.aux_decls.append(Decl(name, SCALAR_INT))
    return name


def transform_loop(s: For, ctx: TransformContext) -> list[Stmt]:
    summary = ctx.summaries[s.loc]
    defs = _defs_in_order(summary, ctx)
    pre = [_nd_assign(u, ctx) for u in defs]
    post = [_nd_assign(u, ctx) for u in defs]
    # The original header always runs its init and leaves the iterator at its
    # exit value; nd() after the body keeps later reads over-approximated.
    trailing = Assign(Var(s.iterator), Nd())
    ctx.trailing_nds[id(trailing)] = trailing
    post.append(trailing)
    body = transform_stmt(s.body, ctx)

    if summary.has_break_or_continue:
        # Keep the single-trip header the output grammar admits, so that
        # break/continue still bind to a loop that runs the body at most once.
        once = _fresh_scalar("once", ctx)
        trip = For(once, Const(0), BinOp("<", _read(once), Const(1)),
                   BinOp("+", _read(once), Const(1)), _block(body, ctx))
        guarded = _block(
            pre + [Assign(Var(s.iterator), _iterator_nd_bound(summary, ctx)), trip], ctx
        )
        return [If(NdRange(Const(0), Const(1)), guarded)] + post

    if summary.full_access:
        iter_init = [
            Assign(Var(s.iterator), _read(ctx.arrays[a].witness_idx))
            for a in summary.accessed_arrays
        ]
        return pre + iter_init + body + post

    inner: list[Stmt] = body
    bound = summary.bound
    if bound and bound.step > 1:
        # Non-unit monotone increment: only iterator values congruent to the
        # start value modulo the step occur in the original loop.
        aligned = BinOp(
            "==",
            BinOp("%", _read(s.iterator), Const(bound.step)),
            Const(bound.start % bound.step),
        )
        inner = [If(aligned, _block(body, ctx))]
    guarded = _block(
        pre + [Assign(Var(s.iterator), _iterator_nd_bound(summary, ctx))] + inner, ctx
    )
    return [If(NdRange(Const(0), Const(1)), guarded)] + post


def transform_stmt(s, ctx: TransformContext) -> list[Stmt]:
    match s:
        case Block(stmts):
            out: list[Stmt] = []
            for sub in stmts:
                out.extend(transform_stmt(sub, ctx))
            return out
        case Assign(ArrayAccess(array, index), value):
            info = ctx.arrays[array]
            rhs = transform_expr(value, ctx)
            return [
                TernaryAssign(
                    BinOp("==", transform_expr(index, ctx), _read(info.witness_idx)),
                    Var(info.witness_var),
                    rhs,
                    clone(rhs),
                )
            ]
        case Assign(Var(name), value):
            return [Assign(Var(name), transform_expr(value, ctx))]
        case For():
            return transform_loop(s, ctx)
        case If(cond, then, orelse):
            cond, then = transform_expr(cond, ctx), transform_stmt(then, ctx)
            if orelse is None:
                return [If(cond, _as_stmt(then, ctx))]
            orelse = _as_stmt(transform_stmt(orelse, ctx), ctx)
            return [If(cond, _as_stmt(then, ctx, braced_if=True), orelse)]
        case Assert(cond):
            return [Assert(transform_expr(cond, ctx))]
        case Break() | Continue():
            return [type(s)()]
        case _:
            raise TransformError(f"unsupported statement: {type(s).__name__}")


def _block(stmts: list[Stmt], ctx: TransformContext) -> Block:
    """A block of ``stmts`` without the trailing iterator nd-assigns that are
    certainly overwritten before any read (e.g. the next full-access loop
    re-pins the iterator). Keeps the enumeration small without changing
    behavior; the nd brackets for loop defs are never touched."""
    prunable = ctx.trailing_nds
    return Block([
        s for n, s in enumerate(stmts)
        if id(s) not in prunable or not _overwritten_before_read(stmts[n + 1:], s.target.name)
    ])


def _as_stmt(stmts: list[Stmt], ctx: TransformContext, braced_if: bool = False) -> Stmt:
    # A conditional as the then-branch of an if-else keeps its braces: printed
    # bare, C would bind the else to it rather than to the enclosing if.
    if len(stmts) == 1 and not (braced_if and isinstance(stmts[0], If)):
        return stmts[0]
    return _block(stmts, ctx)


def _witness_inits(arrays: list[ArrayInfo]) -> list[Stmt]:
    """One nd(0, lastof) initialization per size class; same-size witness
    indices are equated so one run tracks the same position in each array."""
    by_size: dict[int, list[ArrayInfo]] = {}
    for a in arrays:
        by_size.setdefault(a.size, []).append(a)
    inits: list[Stmt] = []
    for size, group in by_size.items():
        rng = NdRange(Const(0), Const(size - 1))
        if len(group) == 1:
            inits.append(Assign(Var(group[0].witness_idx), rng))
        else:
            inits.append(ChainAssign([a.witness_idx for a in group], rng))
    return inits


def _overwritten_before_read(rest: list[Stmt], x: str) -> bool:
    for t in rest:
        match t:
            case Assign(Var(name), value) if name == x:
                return not mentions(value, x)
            case ChainAssign(targets, value) if x in targets:
                return not mentions(value, x)
        if mentions(t, x):
            return False
    return False


def transform_with_info(p: Program, facts: ProgramFacts | None = None) -> TransformResult:
    """Transform ``p``, reusing ``facts`` about it when the caller has them."""
    facts = facts or analyze_program(p)
    if (node := facts.target_only) is not None:
        raise TransformError(f"construct {type(node).__name__} at location {node.loc} is "
                             "only valid in already-transformed programs")
    arrays = facts.arrays
    ctx = TransformContext(
        arrays={a.name: a for a in arrays},
        summaries=facts.summaries,
        decl_order={d.name: n for n, d in enumerate(p.decls)},
        aux_decls=[],
        taken_names={d.name for d in p.decls}
        | {a.witness_var for a in arrays}
        | {a.witness_idx for a in arrays},
        trailing_nds={},
    )
    body = _block(_witness_inits(arrays) + transform_stmt(p.body, ctx), ctx)
    decls = [Decl(name, SCALAR_INT) for a in arrays for name in (a.witness_var, a.witness_idx)]
    decls += [Decl(d.name, SCALAR_INT) for d in p.decls if d.kind != ARRAY_INT]
    decls += ctx.aux_decls
    out = assign_locs(Program(decls, body))
    return TransformResult(out, [a.witness_idx for a in arrays])


def transform_program(p: Program) -> Program:
    """Transform a source-grammar program into target-grammar form."""
    return transform_with_info(p).program
