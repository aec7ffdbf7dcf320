"""Compilation of pairs and closures into explicit allocation.

A pair literal becomes a malloc followed by two assignments, each step
let-bound and annotated with the pair type at its current fill level. A
closure becomes the same chain building a two-slot tuple of code and
environment, finished with ctag. Everything else translates structurally,
through the binder schema.

The first assignment is what makes the second typeable: the second
slot's type may mention the first component, and the target checker
learns the first component's value by reading it back out of the
let-bound tuple. Generated binder names never collide with names from
the input term or its context.
"""

from __future__ import annotations

from operator import is_

from . import conversion, source
from .errors import ErrKind, TypeCheckError
from .heap import filled
from .syntax import (
    _ARGS,
    _CHILD_ARGS,
    _SCOPES,
    Assign1,
    Assign2,
    Clo,
    Code,
    CodeTy,
    Context,
    CTag,
    Expr,
    Let,
    Malloc,
    Name,
    Pair,
    Sigma,
    Var,
    _in_scope,
    all_names,
    fresh_name,
    kept,
    subst,
)
from .target import _FOREIGN, _SOURCE, _reject_foreign


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

    def tr(self, ctx: Context, e: Expr) -> Expr:
        cls = type(e)
        if cls in _FOREIGN:
            # a partial pair type or a form the source lacks
            _reject_foreign(_SOURCE, e)
        match e:
            case Pair(e1, e2, annot):
                if not isinstance(annot, Sigma):
                    raise TypeCheckError(
                        ErrKind.ANNOT_MISMATCH, "pair annotation must be a pair type", e.pos
                    )
                ys = self.gensym(), self.gensym(), self.gensym()
                return _fill(ys, self.tr(ctx, annot), self.tr(ctx, e1), self.tr(ctx, e2), Var)
            case Clo(c, env, _):
                ys = self.gensym(), self.gensym(), self.gensym()
                z = self.named("z")
                code_ty = conversion.normalize(ctx, source.src_infer(ctx, c))
                if not isinstance(code_ty, CodeTy):
                    raise TypeCheckError(
                        ErrKind.NOT_A_FUNCTION, "closure over a term that is not code", c.pos
                    )
                ty = Sigma(z, self.tr(ctx, code_ty), 1, self.tr(ctx, code_ty.env_ty), 1)
                return _fill(ys, ty, self.tr(ctx, c), self.tr(ctx, env), lambda y2: CTag(Var(y2)))
        if not _CHILD_ARGS[cls]:
            return e
        ctx = Context() if cls is Code or cls is CodeTy else ctx
        # children in field order; each binder is pushed, typed by the child
        # before it in source form, and renamed in the children it scopes,
        # never to the name of an inner binder of e, which would capture it
        old = _ARGS[cls](e)
        args, scopes, d = list(old), _SCOPES[cls], 0
        for c, depth in _CHILD_ARGS[cls]:
            while d < depth:
                b, scope = scopes[d]
                x = args[b]
                inner = {args[i] for i, _ in scopes[d + 1 :]} - {x}
                x2 = fresh_name(x, ctx.names() | self.issued | inner)
                self.reserved.add(x2)
                ctx = ctx.extend(x2, src, e.bound if cls is Let else None)
                if x2 != x:
                    for s in _in_scope(args, b, scope):
                        args[s] = subst(args[s], Var(x2), x)
                    args[b] = x2
                d += 1
            src = args[c]
            args[c] = self.tr(ctx, src)
        if all(map(is_, args, old)):
            return e
        return cls(*args[:-1])


def _fill(ys: tuple[Name, Name, Name], ty: Sigma, v1: Expr, v2: Expr, tail) -> Expr:
    """Allocate a tuple at ty with flags (0,0) and fill it with v1, then v2:
    each step let-bound to the next name of ys and annotated with the pair
    type at its fill level, ty itself once full, ending in tail(the last name)."""
    y, y1, y2 = ys
    ty0 = Sigma(ty.binder, ty.dom, 0, ty.cod, 0)
    return Let(
        y,
        Malloc(ty.binder, ty.dom, ty.cod),
        ty0,
        Let(y1, Assign1(Var(y), v1), filled(ty0, 1), Let(y2, Assign2(Var(y1), v2), ty, tail(y2))),
    )


def _reserved_for(ctx: Context, e: Expr) -> frozenset[Name]:
    out = all_names(e) | ctx.names()
    for b in ctx:
        out |= all_names(b.ty)
        if b.defn is not None:
            out |= all_names(b.defn)
    return out


def translate(ctx: Context, e: Expr) -> Expr:
    """Compile a well-typed source term to the allocation target; the
    compiled form of a term in the empty context is kept on it."""
    if ctx.entries:
        return _translate(ctx, e)
    return kept(e, "_compiled", _translate, ctx, e)


def _translate(ctx: Context, e: Expr) -> Expr:
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
