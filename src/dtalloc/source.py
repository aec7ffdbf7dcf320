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
from .errors import StuckError
from .heap import Heap
from .machine import EVAL_FIELDS, Machine
from .sexpr import Lang, print_expr
from .syntax import (
    _memoize,
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

_VALUE_PARTS = {Pair: ("fst", "snd"), Clo: ("env",)}  # what a node's value test reads


def is_src_value(e: Expr) -> bool:
    v = e.__dict__.get("_src_value")
    return v if v is not None else _memoize(e, "_src_value", _is_value, _VALUE_PARTS)


def _is_value(e: Expr) -> bool:
    match e:
        case UnitTm() | UnitTy() | Univ() | Pi() | Sigma() | CodeTy() | Code():
            return True
        case Clo(c, env, _):
            return isinstance(c, Code) and is_src_value(env)
        case Pair(a, d, _):
            return is_src_value(a) and is_src_value(d)
    return False


def _contract(heap: None, e: Expr) -> tuple[None, Expr, str]:
    match e:
        case Let(x, bound, _, body):
            return heap, subst(body, bound, x), "let"
        case App(Clo(Code() as c, env), a):
            return heap, subst_many(c.body, {c.env_binder: env, c.arg_binder: a}), "app-clo"
        case App(f, _):
            raise StuckError(f"cannot apply {type(f).__name__}")
        case Fst(Pair(a, _)):
            return heap, a, "fst-pair"
        case Fst():
            raise StuckError("first projection of a non-pair value")
        case Snd(Pair(_, d)):
            return heap, d, "snd-pair"
        case Snd():
            raise StuckError("second projection of a non-pair value")
        case Clo():
            raise StuckError("closure over a non-code value")
        case Var(x):
            raise StuckError(f"free variable '{x}' cannot step")
    raise StuckError(f"{type(e).__name__} cannot step in the source machine")


_MACHINE = Machine({**EVAL_FIELDS, Clo: ("code", "env"), Pair: ("fst", "snd")},
                   is_src_value, _contract)


def src_step(e: Expr) -> tuple[Expr, str] | None:
    """One step, returning the new term and the rule that fired, or None
    for a value. Raises StuckError on a non-value that cannot step."""
    r = _MACHINE.step(None, e)
    return None if r is None else r[1:]


def src_eval(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> Expr:
    return _MACHINE.run(None, e, fuel)[1]


def src_steps(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[tuple[Expr, str]]:
    """The full reduction sequence as (term, rule) pairs, starting from
    (e, "init")."""
    trace: list = []
    _MACHINE.run(None, e, fuel, trace)
    return [(e, "init")] + [(t, rule) for _, t, rule in trace]


def src_trace(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[str]:
    """Human-readable reduction trace; the source machine has no heap."""
    return [
        f"STEP {k} | {rule} | {print_expr(term, _SOURCE)} | -"
        for k, (term, rule) in enumerate(src_steps(e, fuel))
    ]
