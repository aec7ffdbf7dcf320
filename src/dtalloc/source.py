"""The source language: type checking and call-by-value evaluation.

Functions exist only as closures over closed code. A code literal binds
an environment variable and an argument variable and may mention nothing
else; `clo` packages code with an environment value and is the only
function former. Pair types are written without flags and behave as
fully initialized.

Both universes are checked with Star sitting inside Box; functions may
abstract over either level, while pair types keep both components at the
same level.

Typing is the target's judgement (`target.infer`) run at Lang.SOURCE with
an empty heap; this module keeps the source's entry points and its
machine.
"""

from __future__ import annotations

from . import conversion
from .errors import FuelExhausted, StuckError
from .heap import Heap
from .sexpr import Lang, print_expr
from .syntax import (
    App,
    Clo,
    Code,
    CodeTy,
    Context,
    Expr,
    Fst,
    Let,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    Var,
    subst,
    subst_many,
)
from .target import check, infer, wf

_SOURCE = Lang.SOURCE
_NO_HEAP = Heap()


def src_wf(e: Expr) -> None:
    wf(_SOURCE, e)


def src_equiv(ctx: Context, a: Expr, b: Expr, fuel: int = conversion.DEFAULT_FUEL) -> bool:
    return conversion.equiv(ctx.defs(), a, b, fuel=fuel)


def src_subtype(ctx: Context, small: Expr, big: Expr, fuel: int = conversion.DEFAULT_FUEL) -> bool:
    return conversion.subtype(ctx.defs(), small, big, fuel=fuel)


def src_normalize(ctx: Context, e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> Expr:
    return conversion.normalize(ctx.defs(), e, fuel=fuel)


def src_check(ctx: Context, e: Expr, ty: Expr) -> None:
    check(_SOURCE, _NO_HEAP, ctx, e, ty)


def src_infer(ctx: Context, e: Expr) -> Expr:
    """Infer the type of a source term, raising TypeCheckError on failure."""
    return infer(_SOURCE, _NO_HEAP, ctx, e)


# ---------------------------------------------------------------------------
# Call-by-value evaluation

def is_src_value(e: Expr) -> bool:
    match e:
        case UnitTm() | UnitTy() | Univ() | Pi() | Sigma() | CodeTy() | Code():
            return True
        case Clo(c, env, _):
            return isinstance(c, Code) and is_src_value(env)
        case Pair(a, d, _):
            return is_src_value(a) and is_src_value(d)
    return False


def src_step(e: Expr) -> tuple[Expr, str] | None:
    """One step, returning the new term and the rule that fired, or None
    for a value. Raises StuckError on a non-value that cannot step."""
    if is_src_value(e):
        return None
    match e:
        case Let(x, bound, annot, body):
            if not is_src_value(bound):
                bound2, rule = _step_sub(bound)
                return Let(x, bound2, annot, body, pos=e.pos), rule
            return subst(body, bound, x), "let"
        case App(f, a):
            if not is_src_value(f):
                f2, rule = _step_sub(f)
                return App(f2, a, pos=e.pos), rule
            if not is_src_value(a):
                a2, rule = _step_sub(a)
                return App(f, a2, pos=e.pos), rule
            if isinstance(f, Clo) and isinstance(f.code, Code):
                c = f.code
                m = {c.env_binder: f.env}
                m[c.arg_binder] = a
                return subst_many(c.body, m), "app-clo"
            raise StuckError(f"cannot apply {type(f).__name__}")
        case Fst(inner):
            if not is_src_value(inner):
                i2, rule = _step_sub(inner)
                return Fst(i2, pos=e.pos), rule
            if isinstance(inner, Pair):
                return inner.fst, "fst-pair"
            raise StuckError("first projection of a non-pair value")
        case Snd(inner):
            if not is_src_value(inner):
                i2, rule = _step_sub(inner)
                return Snd(i2, pos=e.pos), rule
            if isinstance(inner, Pair):
                return inner.snd, "snd-pair"
            raise StuckError("second projection of a non-pair value")
        case Clo(c, env, annot):
            if not is_src_value(c):
                c2, rule = _step_sub(c)
                return Clo(c2, env, annot, pos=e.pos), rule
            if not is_src_value(env):
                env2, rule = _step_sub(env)
                return Clo(c, env2, annot, pos=e.pos), rule
            raise StuckError("closure over a non-code value")
        case Pair(a, d, annot):
            if not is_src_value(a):
                a2, rule = _step_sub(a)
                return Pair(a2, d, annot, pos=e.pos), rule
            d2, rule = _step_sub(d)
            return Pair(a, d2, annot, pos=e.pos), rule
        case Var(x):
            raise StuckError(f"free variable '{x}' cannot step")
    raise StuckError(f"{type(e).__name__} cannot step in the source machine")


def _step_sub(e: Expr) -> tuple[Expr, str]:
    r = src_step(e)
    if r is None:
        raise StuckError("subterm is already a value")
    return r


def src_eval(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> Expr:
    for _ in range(fuel):
        r = src_step(e)
        if r is None:
            return e
        e = r[0]
    if src_step(e) is None:
        return e
    raise FuelExhausted(fuel)


def src_steps(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[tuple[Expr, str]]:
    """The full reduction sequence as (term, rule) pairs, starting from
    (e, "init")."""
    out = [(e, "init")]
    for _ in range(fuel):
        r = src_step(e)
        if r is None:
            return out
        e = r[0]
        out.append(r)
    if src_step(e) is None:
        return out
    raise FuelExhausted(fuel)


def src_trace(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[str]:
    """Human-readable reduction trace; the source machine has no heap."""
    return [
        f"STEP {k} | {rule} | {print_expr(term, _SOURCE)} | -"
        for k, (term, rule) in enumerate(src_steps(e, fuel))
    ]
