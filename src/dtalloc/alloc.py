"""Compilation of pairs and closures into explicit allocation.

A pair literal becomes a malloc followed by two assignments, each step
let-bound and annotated with the pair type at its current fill level. A
closure becomes the same chain building a two-slot tuple of code and
environment, finished with ctag. Everything else translates structurally.

The first assignment is what makes the second typeable: the second
slot's type may mention the first component, and the target checker
learns the first component's value by reading it back out of the
let-bound tuple. Generated binder names never collide with names from
the input term or its context.
"""

from __future__ import annotations

from . import source
from .errors import ErrKind, TypeCheckError
from .syntax import (
    App,
    Assign1,
    Assign2,
    Clo,
    Code,
    CodeTy,
    Context,
    CTag,
    Expr,
    Fst,
    Let,
    Malloc,
    Name,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    Var,
    all_names,
    fresh_name,
    subst,
)


class _Translator:
    """Tracks every name in play so generated binders are always fresh.

    reserved holds every name the input could mention, so gensym output
    never collides with it; issued holds only generated names, so user
    binders keep their spelling unless they would shadow one.
    """

    def __init__(self, reserved: frozenset[Name]):
        self.reserved = set(reserved)
        self.issued: set[Name] = set()
        self.k = 0

    def gensym(self) -> Name:
        while True:
            cand = "y" if self.k == 0 else f"y{self.k}"
            self.k += 1
            if cand not in self.reserved:
                self.reserved.add(cand)
                self.issued.add(cand)
                return cand

    def named(self, base: Name) -> Name:
        name = fresh_name(base, self.reserved)
        self.reserved.add(name)
        self.issued.add(name)
        return name

    def push(self, ctx: Context, name: Name, ty: Expr, defn: Expr | None = None):
        name2 = fresh_name(name, ctx.names() | self.issued)
        self.reserved.add(name2)
        return ctx.extend(name2, ty, defn), name2

    def tr(self, ctx: Context, e: Expr) -> Expr:
        match e:
            case Var() | Univ() | UnitTm() | UnitTy():
                return e
            case Pi(x, dom, cod) | Sigma(x, dom, 1, cod, 1):
                ctx2, x2 = self.push(ctx, x, dom)
                dt, ct = self.tr(ctx, dom), self.tr(ctx2, subst(cod, Var(x2), x))
                if x2 == x and dt is dom and ct is cod:
                    return e
                if isinstance(e, Pi):
                    return Pi(x2, dt, ct)
                return Sigma(x2, dt, 1, ct, 1)
            case Sigma():
                raise TypeCheckError(
                    ErrKind.LANG_VIOLATION, "partially initialized pair type in source", e.pos
                )
            case Let(x, bound, annot, body):
                bt = self.tr(ctx, bound)
                at = self.tr(ctx, annot)
                ctx2, x2 = self.push(ctx, x, annot, defn=bound)
                return Let(x2, bt, at, self.tr(ctx2, subst(body, Var(x2), x)))
            case Code():
                return self._tr_code(e, Code)
            case CodeTy():
                return self._tr_code(e, CodeTy)
            case App(f, a):
                return App(self.tr(ctx, f), self.tr(ctx, a))
            case Fst(inner):
                return Fst(self.tr(ctx, inner))
            case Snd(inner):
                return Snd(self.tr(ctx, inner))
            case Pair(e1, e2, annot):
                if not isinstance(annot, Sigma):
                    raise TypeCheckError(
                        ErrKind.ANNOT_MISMATCH, "pair annotation must be a pair type", e.pos
                    )
                y = self.gensym()
                y1 = self.gensym()
                y2 = self.gensym()
                ctx2, x2 = self.push(ctx, annot.binder, annot.dom)
                at = self.tr(ctx, annot.dom)
                bt = self.tr(ctx2, subst(annot.cod, Var(x2), annot.binder))
                t1 = self.tr(ctx, e1)
                t2 = self.tr(ctx, e2)
                return Let(
                    y,
                    Malloc(x2, at, bt),
                    Sigma(x2, at, 0, bt, 0),
                    Let(
                        y1,
                        Assign1(Var(y), t1),
                        Sigma(x2, at, 1, bt, 0),
                        Let(
                            y2,
                            Assign2(Var(y1), t2),
                            Sigma(x2, at, 1, bt, 1),
                            Var(y2),
                        ),
                    ),
                )
            case Clo(c, env, _):
                y = self.gensym()
                y1 = self.gensym()
                y2 = self.gensym()
                z = self.named("z")
                code_ty = source.src_normalize(ctx, source.src_infer(ctx, c))
                if not isinstance(code_ty, CodeTy):
                    raise TypeCheckError(
                        ErrKind.NOT_A_FUNCTION, "closure over a term that is not code", c.pos
                    )
                dt = self.tr(ctx, code_ty)
                et = self.tr(ctx, code_ty.env_ty)
                t1 = self.tr(ctx, c)
                t2 = self.tr(ctx, env)
                return Let(
                    y,
                    Malloc(z, dt, et),
                    Sigma(z, dt, 0, et, 0),
                    Let(
                        y1,
                        Assign1(Var(y), t1),
                        Sigma(z, dt, 1, et, 0),
                        Let(
                            y2,
                            Assign2(Var(y1), t2),
                            Sigma(z, dt, 1, et, 1),
                            CTag(Var(y2)),
                        ),
                    ),
                )
            case _:
                raise TypeCheckError(
                    ErrKind.LANG_VIOLATION,
                    f"{type(e).__name__.lower()} is not a source form",
                    e.pos,
                )

    def _tr_code(self, e, ctor):
        n, envty, x, argty = e.env_binder, e.env_ty, e.arg_binder, e.arg_ty
        body = e.body if ctor is Code else e.result_ty
        empty = Context()
        envt = self.tr(empty, envty)
        ctx_n, n2 = self.push(empty, n, envty)
        argty2 = subst(argty, Var(n2), n) if x != n else argty
        body2 = subst(body, Var(n2), n) if x != n else body
        argt = self.tr(ctx_n, argty2)
        ctx_nx, x2 = self.push(ctx_n, x, argty2)
        bodyt = self.tr(ctx_nx, subst(body2, Var(x2), x))
        return ctor(n2, envt, x2, argt, bodyt)


def _reserved_for(ctx: Context, e: Expr) -> frozenset[Name]:
    out = all_names(e) | ctx.names()
    for b in ctx:
        out |= all_names(b.ty)
        if b.defn is not None:
            out |= all_names(b.defn)
    return out


def translate(ctx: Context, e: Expr) -> Expr:
    """Compile a well-typed source term to the allocation target."""
    return _Translator(_reserved_for(ctx, e)).tr(ctx, e)


def translate_ctx(ctx: Context) -> Context:
    """Compile a context entry by entry, each under the prefix before it."""
    out = Context()
    prefix = Context()
    for b in ctx:
        ty_t = translate(prefix, b.ty)
        defn_t = translate(prefix, b.defn) if b.defn is not None else None
        out = out.extend(b.name, ty_t, defn_t)
        prefix = prefix.extend(b.name, b.ty, b.defn)
    return out
