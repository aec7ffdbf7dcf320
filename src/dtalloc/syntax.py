"""Shared expression syntax for the closure-converted calculus and its
allocation target.

A single AST covers both languages: source terms never use the allocation
constructs, and source pair types always carry initialization flags (1, 1).
Binding is by name; substitution is capture-avoiding with deterministic
freshening, and every judgment downstream is invariant under
alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

Name = str
Flag = int  # initialization bit: 0 uninitialized, 1 initialized
Pos = "tuple[int, int] | None"


class Universe(Enum):
    """The two sorts: the impredicative base and the predicative kind level."""

    STAR = "Star"
    BOX = "Box"


def _pos():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Expr:
    """Base class for expressions of both languages."""


@dataclass(frozen=True)
class Var(Expr):
    name: Name
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Univ(Expr):
    kind: Universe
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class UnitTm(Expr):
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class UnitTy(Expr):
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Let(Expr):
    """Annotated let: binder scopes over the body only."""

    binder: Name
    bound: Expr
    annot: Expr
    body: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Code(Expr):
    """Closed code: env_binder scopes over arg_ty and body, arg_binder over body."""

    env_binder: Name
    env_ty: Expr
    arg_binder: Name
    arg_ty: Expr
    body: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class CodeTy(Expr):
    """Type of closed code; scoping mirrors Code with result_ty in body position."""

    env_binder: Name
    env_ty: Expr
    arg_binder: Name
    arg_ty: Expr
    result_ty: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Clo(Expr):
    """Closure value: code applied to its environment, annotated with a Pi type."""

    code: Expr
    env: Expr
    annot_pi: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Pi(Expr):
    binder: Name
    dom: Expr
    cod: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Pair(Expr):
    """Annotated dependent pair; source language only."""

    fst: Expr
    snd: Expr
    annot_sigma: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Sigma(Expr):
    """Dependent pair type with one initialization flag per component.

    Source pair types are stored with flags (1, 1); the source printer
    omits them.
    """

    binder: Name
    dom: Expr
    flag1: Flag
    cod: Expr
    flag2: Flag
    pos: tuple[int, int] | None = _pos()

    def __post_init__(self):
        if self.flag1 not in (0, 1) or self.flag2 not in (0, 1):
            raise ValueError(f"initialization flags must be 0 or 1, got ({self.flag1}, {self.flag2})")


@dataclass(frozen=True)
class Fst(Expr):
    expr: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Snd(Expr):
    expr: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Malloc(Expr):
    """Allocation of an uninitialized two-slot tuple; binder scopes over ty2."""

    binder: Name
    ty1: Expr
    ty2: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Assign1(Expr):
    tuple_: Expr
    value: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Assign2(Expr):
    tuple_: Expr
    value: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class CTag(Expr):
    """Marks an allocated tuple as a closure."""

    expr: Expr
    pos: tuple[int, int] | None = _pos()


@dataclass(frozen=True)
class Loc(Expr):
    """Heap location; appears only at run time, never in parsed programs."""

    loc_id: int
    pos: tuple[int, int] | None = _pos()


STAR = Univ(Universe.STAR)
BOX = Univ(Universe.BOX)
UNIT = UnitTm()
UNIT_TY = UnitTy()


# ---------------------------------------------------------------------------
# Contexts

@dataclass(frozen=True)
class Binding:
    """One telescope entry; defn is set for let-bound variables."""

    name: Name
    ty: Expr
    defn: Expr | None = None


@dataclass(frozen=True)
class Context:
    """Telescope of typed (and optionally defined) variables."""

    entries: tuple[Binding, ...] = ()

    def extend(self, name: Name, ty: Expr, defn: Expr | None = None) -> Context:
        return Context(self.entries + (Binding(name, ty, defn),))

    def lookup(self, name: Name) -> Binding | None:
        for b in reversed(self.entries):
            if b.name == name:
                return b
        return None

    def names(self) -> set[Name]:
        return {b.name for b in self.entries}

    def defs(self) -> dict[Name, Expr]:
        """Definitions visible for unfolding, innermost binding winning."""
        out: dict[Name, Expr] = {}
        for b in self.entries:
            if b.defn is not None:
                out[b.name] = b.defn
            elif b.name in out:
                del out[b.name]  # later undefined binding shadows a definition
        return out

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


# ---------------------------------------------------------------------------
# Free variables and freshening
#
# Nodes are frozen and never mutated, so each analysis (free names, all
# names, heap-freedom) runs once per node: the result is stored in the
# node's __dict__ under a key that is not a dataclass field, where
# equality, hashing and repr do not look. Each uncached helper computes one
# node's result from the memoized results of its children, and _memoize
# runs it bottom-up with an explicit stack, so the analyses of a deep term
# do not use Python's call stack.

_NO_NAMES: frozenset[Name] = frozenset()

# the fields of each node type that hold subexpressions; field types are
# strings here because of the __future__ import
_CHILD_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.type == "Expr") for cls in Expr.__subclasses__()
}


def _memoize(e: Expr, key: str, analysis, children=_CHILD_FIELDS):
    """Store analysis(n) under key on e and on every node below it, through
    the given child fields, that lacks it; return e's value."""
    order, todo = [], [e]
    while todo:
        n = todo.pop()
        if key not in n.__dict__:
            order.append(n)
            for f in children.get(type(n), ()):
                todo.append(getattr(n, f))
    # every node comes after its parent in order, so children go first
    for n in reversed(order):
        if key not in n.__dict__:
            object.__setattr__(n, key, analysis(n))
    return e.__dict__[key]


def free_vars(e: Expr) -> frozenset[Name]:
    """The free names of e; bound occurrences are excluded."""
    fv = e.__dict__.get("_free_vars")
    return fv if fv is not None else _memoize(e, "_free_vars", _free_vars)


def _free_vars(e: Expr) -> frozenset[Name]:
    match e:
        case Var(x):
            return frozenset((x,))
        case Univ() | UnitTm() | UnitTy() | Loc():
            return _NO_NAMES
        case Let(b, bound, annot, body):
            return free_vars(bound) | free_vars(annot) | (free_vars(body) - {b})
        case Code(n, envty, x, argty, body) | CodeTy(n, envty, x, argty, body):
            return free_vars(envty) | (free_vars(argty) - {n}) | (free_vars(body) - {n, x})
        case Clo(c, env, pi) | Pair(c, env, pi):
            return free_vars(c) | free_vars(env) | free_vars(pi)
        case Pi(b, dom, cod) | Sigma(b, dom, _, cod, _) | Malloc(b, dom, cod):
            return free_vars(dom) | (free_vars(cod) - {b})
        case App(f, a) | Assign1(f, a) | Assign2(f, a):
            return free_vars(f) | free_vars(a)
        case Fst(inner) | Snd(inner) | CTag(inner):
            return free_vars(inner)
    raise TypeError(f"unknown expression node: {e!r}")


def all_names(e: Expr) -> frozenset[Name]:
    """Every name occurring in e, free or bound, including binders."""
    names = e.__dict__.get("_all_names")
    return names if names is not None else _memoize(e, "_all_names", _all_names)


def _all_names(e: Expr) -> frozenset[Name]:
    match e:
        case Var(x):
            return frozenset((x,))
        case Univ() | UnitTm() | UnitTy() | Loc():
            return _NO_NAMES
        case Let(b, bound, annot, body):
            return all_names(bound) | all_names(annot) | all_names(body) | {b}
        case Code(n, envty, x, argty, body) | CodeTy(n, envty, x, argty, body):
            return all_names(envty) | all_names(argty) | all_names(body) | {n, x}
        case Clo(c, env, pi) | Pair(c, env, pi):
            return all_names(c) | all_names(env) | all_names(pi)
        case Pi(b, dom, cod) | Sigma(b, dom, _, cod, _) | Malloc(b, dom, cod):
            return all_names(dom) | all_names(cod) | {b}
        case App(f, a) | Assign1(f, a) | Assign2(f, a):
            return all_names(f) | all_names(a)
        case Fst(inner) | Snd(inner) | CTag(inner):
            return all_names(inner)
    raise TypeError(f"unknown expression node: {e!r}")


_HEAP_NODES = (Loc, Malloc, Assign1, Assign2)


def heap_free(e: Expr) -> bool:
    """Whether e contains no location and no allocation or assignment, so
    that nothing about it can depend on a heap."""
    hf = e.__dict__.get("_heap_free")
    return hf if hf is not None else _memoize(e, "_heap_free", _heap_free)


def _heap_free(e: Expr) -> bool:
    return not isinstance(e, _HEAP_NODES) and all(
        heap_free(getattr(e, f)) for f in _CHILD_FIELDS[type(e)]
    )


def fresh_name(base: Name, avoid: set[Name] | frozenset[Name]) -> Name:
    """Deterministic fresh name: base itself, or base with the least free suffix."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def push_binder(
    ctx: Context, name: Name, ty: Expr, defn: Expr | None = None
) -> tuple[Context, Name]:
    """Extend ctx with a binder, renaming it if it would shadow an entry.

    Contexts therefore never contain two entries with the same name; the
    caller renames the binder's scope to the returned name.
    """
    name2 = fresh_name(name, ctx.names())
    return ctx.extend(name2, ty, defn), name2


# ---------------------------------------------------------------------------
# Substitution

def subst(e: Expr, v: Expr, x: Name) -> Expr:
    """Capture-avoiding substitution e[v/x]."""
    if isinstance(v, Var) and v.name == x:
        return e
    return _psubst(e, {x: v})


def subst_many(e: Expr, mapping: dict[Name, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution."""
    return _psubst(e, dict(mapping))


def _rebind(b: Name, parts: list[Expr], sub: dict[Name, Expr]):
    """Adjust a parallel substitution for descent under binder b.

    Drops entries shadowed or unused in `parts`; when b would capture a
    free name of a live replacement, maps b to a fresh variable instead.
    Returns the new binder name and the adjusted substitution.
    """
    live = {k: w for k, w in sub.items() if k != b and any(k in free_vars(p) for p in parts)}
    if not live:
        return b, {}
    if all(b not in free_vars(w) for w in live.values()):
        return b, live
    avoid = set(live) | {b}
    for w in live.values():
        avoid |= free_vars(w)
    for p in parts:
        avoid |= free_vars(p)
    b2 = fresh_name(b, avoid)
    live[b] = Var(b2)
    return b2, live


def _psubst(e: Expr, sub: dict[Name, Expr]) -> Expr:
    """e with sub applied; subterms it leaves alone are returned as they
    are, and rebuilt nodes keep their source position."""
    if sub.keys().isdisjoint(free_vars(e)):
        return e
    pos = e.pos
    match e:
        case Var(x):
            return sub[x]
        case Let(b, bound, annot, body):
            b2, sub2 = _rebind(b, [body], sub)
            return Let(b2, _psubst(bound, sub), _psubst(annot, sub), _psubst(body, sub2), pos=pos)
        case Code(n, envty, xb, argty, body) | CodeTy(n, envty, xb, argty, body):
            n_scope = [argty, body] if xb != n else [argty]
            n2, subn = _rebind(n, n_scope, sub)
            x2, subx = _rebind(xb, [body], subn)
            return type(e)(
                n2, _psubst(envty, sub), x2, _psubst(argty, subn), _psubst(body, subx), pos=pos
            )
        case Pi(b, dom, cod) | Malloc(b, dom, cod):
            b2, sub2 = _rebind(b, [cod], sub)
            return type(e)(b2, _psubst(dom, sub), _psubst(cod, sub2), pos=pos)
        case Sigma(b, dom, f1, cod, f2):
            b2, sub2 = _rebind(b, [cod], sub)
            return Sigma(b2, _psubst(dom, sub), f1, _psubst(cod, sub2), f2, pos=pos)
        case Clo(a, d, s) | Pair(a, d, s):
            return type(e)(_psubst(a, sub), _psubst(d, sub), _psubst(s, sub), pos=pos)
        case App(f, a) | Assign1(f, a) | Assign2(f, a):
            return type(e)(_psubst(f, sub), _psubst(a, sub), pos=pos)
        case Fst(inner) | Snd(inner) | CTag(inner):
            return type(e)(_psubst(inner, sub), pos=pos)
    raise TypeError(f"unknown expression node: {e!r}")


# ---------------------------------------------------------------------------
# Alpha-equivalence

def alpha_eq(e1: Expr, e2: Expr) -> bool:
    """Equality up to consistent renaming of bound names.

    Free names and heap locations compare by identity; flags by value.
    """
    return _aeq(e1, e2, {}, {}, 0)


def _bind(m: dict[Name, int], name: Name, level: int) -> dict[Name, int]:
    m2 = dict(m)
    m2[name] = level
    return m2


def _aeq(a: Expr, b: Expr, m1: dict[Name, int], m2: dict[Name, int], k: int) -> bool:
    # a shared subterm equals itself when both sides read its free names
    # alike; comparing the maps first keeps free_vars off fresh terms
    if a is b and (m1 == m2 or all(m1.get(x, x) == m2.get(x, x) for x in free_vars(a))):
        return True
    match a, b:
        case (Var(x), Var(y)):
            return m1.get(x, x) == m2.get(y, y)
        case (Univ(u1), Univ(u2)):
            return u1 == u2
        case (UnitTm(), UnitTm()) | (UnitTy(), UnitTy()):
            return True
        case (Loc(i), Loc(j)):
            return i == j
        case (Let(b1, e1, a1, t1), Let(b2, e2, a2, t2)):
            return (
                _aeq(e1, e2, m1, m2, k)
                and _aeq(a1, a2, m1, m2, k)
                and _aeq(t1, t2, _bind(m1, b1, k), _bind(m2, b2, k), k + 1)
            )
        case (Code(n1, v1, x1, g1, t1), Code(n2, v2, x2, g2, t2)) | (
            CodeTy(n1, v1, x1, g1, t1),
            CodeTy(n2, v2, x2, g2, t2),
        ):
            if type(a) is not type(b):
                return False
            m1n, m2n = _bind(m1, n1, k), _bind(m2, n2, k)
            m1x, m2x = _bind(m1n, x1, k + 1), _bind(m2n, x2, k + 1)
            return (
                _aeq(v1, v2, m1, m2, k)
                and _aeq(g1, g2, m1n, m2n, k + 1)
                and _aeq(t1, t2, m1x, m2x, k + 2)
            )
        case (Clo(c1, v1, p1), Clo(c2, v2, p2)):
            return _aeq(c1, c2, m1, m2, k) and _aeq(v1, v2, m1, m2, k) and _aeq(p1, p2, m1, m2, k)
        case (Pi(b1, d1, c1), Pi(b2, d2, c2)) | (Malloc(b1, d1, c1), Malloc(b2, d2, c2)):
            if type(a) is not type(b):
                return False
            return _aeq(d1, d2, m1, m2, k) and _aeq(
                c1, c2, _bind(m1, b1, k), _bind(m2, b2, k), k + 1
            )
        case (App(f1, a1), App(f2, a2)) | (Assign1(f1, a1), Assign1(f2, a2)) | (
            Assign2(f1, a1),
            Assign2(f2, a2),
        ):
            if type(a) is not type(b):
                return False
            return _aeq(f1, f2, m1, m2, k) and _aeq(a1, a2, m1, m2, k)
        case (Pair(a1, d1, s1), Pair(a2, d2, s2)):
            return (
                _aeq(a1, a2, m1, m2, k)
                and _aeq(d1, d2, m1, m2, k)
                and _aeq(s1, s2, m1, m2, k)
            )
        case (Sigma(b1, d1, f1, c1, g1), Sigma(b2, d2, f2, c2, g2)):
            return (
                f1 == f2
                and g1 == g2
                and _aeq(d1, d2, m1, m2, k)
                and _aeq(c1, c2, _bind(m1, b1, k), _bind(m2, b2, k), k + 1)
            )
        case (Fst(i1), Fst(i2)) | (Snd(i1), Snd(i2)) | (CTag(i1), CTag(i2)):
            if type(a) is not type(b):
                return False
            return _aeq(i1, i2, m1, m2, k)
    return False
