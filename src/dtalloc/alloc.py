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
from .heap import filled
from .syntax import (
    _CHILD_FIELDS,
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
            case Code(n, envty, x, argty, body) | CodeTy(n, envty, x, argty, body):
                empty = Context()
                envt = self.tr(empty, envty)
                # n can still be renamed here: normalizing a closure's code
                # type renames an env binder named like a let-bound variable,
                # and the new name can be one this translator has issued
                ctx_n, n2 = self.push(empty, n, envty)
                argty2 = subst(argty, Var(n2), n) if x != n else argty
                body2 = subst(body, Var(n2), n) if x != n else body
                argt = self.tr(ctx_n, argty2)
                ctx_nx, x2 = self.push(ctx_n, x, argty2)
                bodyt = self.tr(ctx_nx, subst(body2, Var(x2), x))
                return type(e)(n2, envt, x2, argt, bodyt)
            case App() | Fst() | Snd():
                return type(e)(*[self.tr(ctx, getattr(e, f)) for f in _CHILD_FIELDS[type(e)]])
            case Pair(e1, e2, annot):
                if not isinstance(annot, Sigma):
                    raise TypeCheckError(
                        ErrKind.ANNOT_MISMATCH, "pair annotation must be a pair type", e.pos
                    )
                ys = self.gensym(), self.gensym(), self.gensym()
                ctx2, x2 = self.push(ctx, annot.binder, annot.dom)
                at = self.tr(ctx, annot.dom)
                bt = self.tr(ctx2, subst(annot.cod, Var(x2), annot.binder))
                return _fill(ys, Sigma(x2, at, 0, bt, 0), self.tr(ctx, e1), self.tr(ctx, e2), Var)
            case Clo(c, env, _):
                ys = self.gensym(), self.gensym(), self.gensym()
                z = self.named("z")
                code_ty = source.src_normalize(ctx, source.src_infer(ctx, c))
                if not isinstance(code_ty, CodeTy):
                    raise TypeCheckError(
                        ErrKind.NOT_A_FUNCTION, "closure over a term that is not code", c.pos
                    )
                ty = Sigma(z, self.tr(ctx, code_ty), 0, self.tr(ctx, code_ty.env_ty), 0)
                return _fill(ys, ty, self.tr(ctx, c), self.tr(ctx, env), lambda y2: CTag(Var(y2)))
            case _:
                raise TypeCheckError(
                    ErrKind.LANG_VIOLATION,
                    f"{type(e).__name__.lower()} is not a source form",
                    e.pos,
                )


def _fill(ys: tuple[Name, Name, Name], ty: Sigma, v1: Expr, v2: Expr, tail) -> Expr:
    """Allocate a tuple at ty, of flags (0,0), and fill it with v1, then v2:
    each step let-bound to the next name of ys and annotated with the pair
    type at its fill level, ending in tail(the last name)."""
    y, y1, y2 = ys
    ty1 = filled(ty, 1)
    return Let(
        y,
        Malloc(ty.binder, ty.dom, ty.cod),
        ty,
        Let(y1, Assign1(Var(y), v1), ty1, Let(y2, Assign2(Var(y1), v2), filled(ty1, 2), tail(y2))),
    )


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
