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
an empty heap; this module keeps the source types and values of closed
terms on their nodes, and the source machine.
"""

from __future__ import annotations

from . import conversion
from .heap import Heap
from .machine import EVAL_FIELDS, STUCK, Machine
from .sexpr import Lang, print_expr
from .syntax import (
    _memoize,
    Clo,
    Code,
    CodeTy,
    Context,
    Expr,
    Fst,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    kept,
)
from .target import _FOREIGN, infer, wf

_SOURCE = Lang.SOURCE
_NO_HEAP = Heap()


# kept for perfbench/workloads.py, which calls it by this name
def src_wf(e: Expr) -> None:
    wf(_SOURCE, e)


def src_infer(ctx: Context, e: Expr) -> Expr:
    """Infer the type of a source term, raising TypeCheckError on failure;
    the type of a term in the empty context is kept on it."""
    if ctx.entries:
        return infer(_SOURCE, _NO_HEAP, ctx, e)
    return kept(e, "_src_type", infer, _SOURCE, _NO_HEAP, ctx, e)


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


# the allocation forms are foreign, so this machine never allocates
_MACHINE = Machine(
    {**EVAL_FIELDS, Clo: ("code", "env"), Pair: ("fst", "snd")}, is_src_value,
    {**STUCK, Fst: "first projection of a non-pair value",
     Snd: "second projection of a non-pair value", Clo: "closure over a non-code value",
     Expr: "{e.__class__.__name__} cannot step in the source machine"},
    frozenset(cls for cls, (lang, _) in _FOREIGN.items() if lang is _SOURCE))


def src_step(e: Expr) -> tuple[Expr, str] | None:
    """One step, returning the new term and the rule that fired, or None
    for a value. Raises StuckError on a non-value that cannot step."""
    r = next(_MACHINE.steps(None, e, 1), None)
    return None if r is None else r[1:3]


def src_eval(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> Expr:
    """The value e runs to, kept on e per fuel."""
    return kept(e, f"_src_eval{fuel}", _run, e, fuel)


def _run(e: Expr, fuel: int) -> Expr:
    return _MACHINE.run(None, e, fuel)[1]


def src_steps(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[tuple[Expr, str]]:
    """The full reduction sequence as (term, rule) pairs, starting from
    (e, "init")."""
    return [(e, "init")] + [(t, rule) for _, t, rule, *_ in _MACHINE.steps(None, e, fuel)]


def src_trace(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[str]:
    """Human-readable reduction trace; the source machine has no heap."""
    return [
        f"STEP {k} | {rule} | {print_expr(term, _SOURCE)} | -"
        for k, (term, rule) in enumerate(src_steps(e, fuel))
    ]
