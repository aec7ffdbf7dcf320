"""Shared expression syntax for the closure-converted calculus and its
allocation target.

A single AST covers both languages: source terms never use the allocation
constructs, and source pair types always carry initialization flags (1, 1).
Binding is by name; substitution is capture-avoiding with deterministic
freshening, and every judgment downstream is invariant under
alpha-equivalence.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum
from operator import attrgetter

Name = str
Flag = int  # initialization bit: 0 uninitialized, 1 initialized


class Universe(Enum):
    """The two sorts: the impredicative base and the predicative kind level."""

    STAR = "Star"
    BOX = "Box"


# ---------------------------------------------------------------------------
# Records
#
# Nodes, context entries, heap cells and machine states are built by the
# thousand in every judgement, so building one costs one Python call: the
# __init__ that @record generates stores each argument straight into the
# instance's __dict__. @record keeps the dataclass description of the
# class (fields, replace, __match_args__), and Record holds, once for every
# record class, what dataclass(frozen=True) would generate per class:
# equality and hashing over the compared fields, repr over the shown ones,
# and no assignment or deletion. Memo keys live in the same __dict__ under
# names that are not fields, where equality, hashing and repr do not look.


class Record:
    """A frozen record; its class is made by @record."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """cls, a subclass of Record, as a dataclass without generated methods
    but two: _key, the tuple of its compared fields, and, unless cls
    defines its own, an __init__ that writes each field to __dict__."""
    if cls.__doc__ is None:  # else dataclass documents the __init__ not yet made
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    cls._shown = tuple(f.name for f in fs if f.repr)
    defaults = {f"_{f.name}": f.default for f in fs if f.default is not MISSING}
    params = ", ".join(f"{f.name}=_{f.name}" if f"_{f.name}" in defaults else f.name for f in fs)
    stores = "".join(f"\n    d[{f.name!r}] = {f.name}" for f in fs)
    key = "".join(f"self.{f.name}, " for f in fs if f.compare)
    source = (
        f"def __init__(self, {params}):\n    d = self.__dict__{stores}\n"
        f"def _key(self):\n    return ({key})\n"
    )
    made: dict = {}
    exec(source, defaults, made)
    for name, fn in made.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    return cls


def _pos():
    return field(default=None, compare=False, repr=False)


class Expr(Record):
    """Base class for expressions of both languages."""


@record
class Var(Expr):
    name: Name
    pos: tuple[int, int] | None = _pos()


@record
class Univ(Expr):
    kind: Universe
    pos: tuple[int, int] | None = _pos()


@record
class UnitTm(Expr):
    pos: tuple[int, int] | None = _pos()


@record
class UnitTy(Expr):
    pos: tuple[int, int] | None = _pos()


@record
class Let(Expr):
    """Annotated let: binder scopes over the body only."""

    binder: Name
    bound: Expr
    annot: Expr
    body: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Code(Expr):
    """Closed code: env_binder scopes over arg_ty and body, arg_binder over body."""

    env_binder: Name
    env_ty: Expr
    arg_binder: Name
    arg_ty: Expr
    body: Expr
    pos: tuple[int, int] | None = _pos()


@record
class CodeTy(Expr):
    """Type of closed code; scoping mirrors Code with result_ty in body position."""

    env_binder: Name
    env_ty: Expr
    arg_binder: Name
    arg_ty: Expr
    result_ty: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Clo(Expr):
    """Closure value: code applied to its environment, annotated with a Pi type."""

    code: Expr
    env: Expr
    annot_pi: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Pi(Expr):
    binder: Name
    dom: Expr
    cod: Expr
    pos: tuple[int, int] | None = _pos()


@record
class App(Expr):
    fn: Expr
    arg: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Pair(Expr):
    """Annotated dependent pair; source language only."""

    fst: Expr
    snd: Expr
    annot_sigma: Expr
    pos: tuple[int, int] | None = _pos()


@record
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

    def __init__(self, binder, dom, flag1, cod, flag2, pos=None):
        if flag1 not in (0, 1) or flag2 not in (0, 1):
            raise ValueError(f"initialization flags must be 0 or 1, got ({flag1}, {flag2})")
        d = self.__dict__
        d["binder"], d["dom"], d["flag1"], d["cod"], d["flag2"], d["pos"] = (
            binder, dom, flag1, cod, flag2, pos)


@record
class Fst(Expr):
    expr: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Snd(Expr):
    expr: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Malloc(Expr):
    """Allocation of an uninitialized two-slot tuple; binder scopes over ty2."""

    binder: Name
    ty1: Expr
    ty2: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Assign1(Expr):
    tuple_: Expr
    value: Expr
    pos: tuple[int, int] | None = _pos()


@record
class Assign2(Expr):
    tuple_: Expr
    value: Expr
    pos: tuple[int, int] | None = _pos()


@record
class CTag(Expr):
    """Marks an allocated tuple as a closure."""

    expr: Expr
    pos: tuple[int, int] | None = _pos()


@record
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

@record
class Binding(Record):
    """One telescope entry; defn is set for let-bound variables."""

    name: Name
    ty: Expr
    defn: Expr | None = None


@record
class Context(Record):
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
# Binding structure
#
# The one place binding is declared. For each node type: its binder fields,
# outermost first, and each child field, in field order, with how many of
# those binders scope it. Free names, all names, substitution, alpha-
# equivalence and normalization under binders are all derived from this
# table. A binder that repeats an outer binder's name shadows it in the
# children both scope, as nested binders do: code whose argument binder
# repeats the environment binder's name has a body that sees the argument.
# A new node type needs one entry here, and its typing and machine arms.

_SCHEMA: dict[type, tuple[tuple[str, ...], dict[str, int]]] = {
    Var: ((), {}),
    Univ: ((), {}),
    UnitTm: ((), {}),
    UnitTy: ((), {}),
    Loc: ((), {}),
    Let: (("binder",), {"bound": 0, "annot": 0, "body": 1}),
    Code: (("env_binder", "arg_binder"), {"env_ty": 0, "arg_ty": 1, "body": 2}),
    CodeTy: (("env_binder", "arg_binder"), {"env_ty": 0, "arg_ty": 1, "result_ty": 2}),
    Clo: ((), {"code": 0, "env": 0, "annot_pi": 0}),
    Pi: (("binder",), {"dom": 0, "cod": 1}),
    App: ((), {"fn": 0, "arg": 0}),
    Pair: ((), {"fst": 0, "snd": 0, "annot_sigma": 0}),
    Sigma: (("binder",), {"dom": 0, "cod": 1}),
    Fst: ((), {"expr": 0}),
    Snd: ((), {"expr": 0}),
    Malloc: (("binder",), {"ty1": 0, "ty2": 1}),
    Assign1: ((), {"tuple_": 0, "value": 0}),
    Assign2: ((), {"tuple_": 0, "value": 0}),
    CTag: ((), {"expr": 0}),
}

# Tables derived once per node type, so that the walkers below do no
# per-call set-up. Constructor arguments are the dataclass fields in order,
# pos last; a node rebuilt from _ARGS with some of them replaced keeps its
# position.
_INIT_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _SCHEMA}
_ARGS = {cls: attrgetter(*names) for cls, names in _INIT_FIELDS.items() if len(names) > 1}
_INDEX = {(cls, name): i for cls, names in _INIT_FIELDS.items() for i, name in enumerate(names)}
_BINDERS = {cls: binders for cls, (binders, _) in _SCHEMA.items()}
_CHILDREN = {cls: tuple(children.items()) for cls, (_, children) in _SCHEMA.items()}
_CHILD_FIELDS = {cls: tuple(children) for cls, (_, children) in _SCHEMA.items()}
# the children as (constructor argument index, binders above it)
_CHILD_ARGS = {cls: tuple((_INDEX[cls, f], d) for f, d in cs) for cls, cs in _CHILDREN.items()}
# the fields that are neither binders nor children nor pos: compared by value
_DATA = {
    cls: tuple(f for f in _INIT_FIELDS[cls][:-1] if f not in binders and f not in children)
    for cls, (binders, children) in _SCHEMA.items()
}


def _scope_plan(cls: type):
    """Per binder, outermost first: its argument index and, for each child
    below it, the child's argument index and those of the binders between
    the two, any of which shadows the binder when it has the same name."""
    binders, children = _SCHEMA[cls]
    plan = []
    for i, b in enumerate(binders):
        scope = tuple(
            (_INDEX[cls, f], tuple(_INDEX[cls, s] for s in binders[i + 1 : depth]))
            for f, depth in children.items()
            if depth > i
        )
        plan.append((_INDEX[cls, b], scope))
    return tuple(plan)


_SCOPES = {cls: _scope_plan(cls) for cls in _SCHEMA}


def _in_scope(args: list, b: int, scope) -> list[int]:
    """The argument indices of the children that binder args[b], with the
    given scope plan, scopes: those no inner binder of its name shadows."""
    name = args[b]
    return [c for c, inner in scope if not inner or all(args[s] != name for s in inner)]


def subterms(e: Expr):
    """Every subterm of e, e first, each before its children, walked on an
    explicit stack; of two siblings the later field comes first."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        for f in _CHILD_FIELDS[type(cur)]:
            stack.append(getattr(cur, f))


# ---------------------------------------------------------------------------
# Free variables and freshening
#
# Nodes are frozen and never mutated, so each analysis (free names, all
# names, heap-freedom) runs once per node: the result is stored in the
# node's __dict__ under a key that is not a field, where
# equality, hashing and repr do not look. Each uncached helper computes one
# node's result from the memoized results of its children. _memoize runs
# it at once on a node whose children all carry their results, as every
# node built over analysed subterms does, and otherwise bottom-up with an
# explicit stack, so the analyses of a deep term do not use Python's call
# stack.

_NO_NAMES: frozenset[Name] = frozenset()


def _memoize(e: Expr, key: str, analysis, children=_CHILD_FIELDS):
    """Store analysis(n) under key on e and on every node below it, through
    the given child fields, that lacks it; return e's value."""
    for f in children.get(type(e), ()):
        if key not in getattr(e, f).__dict__:
            break
    else:
        value = e.__dict__[key] = analysis(e)
        return value
    order, todo = [], [e]
    while todo:
        n = todo.pop()
        if key not in n.__dict__:
            order.append(n)
            for f in children.get(type(n), ()):
                todo.append(getattr(n, f))
    # every node comes after its parent in order, so children go first
    for n in reversed(order):
        d = n.__dict__
        if key not in d:
            d[key] = analysis(n)
    return e.__dict__[key]


def free_vars(e: Expr) -> frozenset[Name]:
    """The free names of e; bound occurrences are excluded."""
    fv = e.__dict__.get("_free_vars")
    return fv if fv is not None else _memoize(e, "_free_vars", _free_vars)


def _free_vars(e: Expr) -> frozenset[Name]:
    cls = type(e)
    if cls is Var:
        return frozenset((e.name,))
    out = _NO_NAMES
    for f, depth in _CHILDREN[cls]:
        fv = free_vars(getattr(e, f))
        if depth:
            fv = fv.difference([getattr(e, b) for b in _BINDERS[cls][:depth]])
        out = out | fv
    return out


def all_names(e: Expr) -> frozenset[Name]:
    """Every name occurring in e, free or bound, including binders."""
    names = e.__dict__.get("_all_names")
    return names if names is not None else _memoize(e, "_all_names", _all_names)


def _all_names(e: Expr) -> frozenset[Name]:
    cls = type(e)
    if cls is Var:
        return frozenset((e.name,))
    out = _NO_NAMES
    for f in _CHILD_FIELDS[cls]:
        out = out | all_names(getattr(e, f))
    for b in _BINDERS[cls]:
        out = out | {getattr(e, b)}
    return out


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


def kept(e: Expr, key: str, judge, *args, when=None):
    """judge(*args), a judgement whose value depends on the node e alone,
    made once and kept in e's __dict__ under key, where equality, hashing
    and repr do not look; with when, only if when(e), asked on a miss. An
    exception is never kept: the next call judges again and raises it
    again, with the same kind, message and position."""
    d = e.__dict__
    if key in d:
        return d[key]
    value = judge(*args)
    if when is None or when(e):
        d[key] = value
    return value


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
    if isinstance(v, Var) and v.name == x or x not in free_vars(e):
        return e
    if _known_closed(v):
        return _closed_subst(e, {x: v})
    return _psubst(e, {x: v})


def subst_many(e: Expr, mapping: dict[Name, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution."""
    if all(map(_known_closed, mapping.values())):
        return _closed_subst(e, dict(mapping))
    return _psubst(e, dict(mapping))


# the node types with no children that are not variables: closed terms
_CLOSED_LEAVES = frozenset(cls for cls in _SCHEMA if not _CHILDREN[cls] and cls is not Var)


def _known_closed(v: Expr) -> bool:
    """Whether v is known to have no free name without computing its free
    names: a closed leaf, or a node whose memoized free names are empty."""
    if type(v) in _CLOSED_LEAVES:
        return True
    fv = v.__dict__.get("_free_vars")
    return fv is not None and not fv


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
    cls = type(e)
    if cls is Var:
        return sub[e.name]
    args = list(_ARGS[cls](e))
    # subs[d] applies under the outermost d binders
    subs = [sub]
    for b, scope in _SCOPES[cls]:
        # every child below the binder, shadowed or not: a child that an
        # inner binder of the same name shadows still needs the entries
        # for its other names, and that binder drops the entry for its own
        args[b], sub = _rebind(args[b], [args[c] for c, _ in scope], sub)
        subs.append(sub)
    for c, depth in _CHILD_ARGS[cls]:
        args[c] = _psubst(args[c], subs[depth])
    return cls(*args)


def _closed_subst(e: Expr, sub: dict[Name, Expr]) -> Expr:
    """_psubst(e, sub) for replacements with no free names, node for node:
    no binder can capture one of them, so none is renamed, and a binder
    only drops the entry for its own name."""
    if sub.keys().isdisjoint(free_vars(e)):
        return e
    cls = type(e)
    if cls is Var:
        return sub[e.name]
    args = list(_ARGS[cls](e))
    subs = [sub]
    for b in _BINDERS[cls]:
        name = getattr(e, b)
        if name in sub:
            sub = {k: w for k, w in sub.items() if k != name}
        subs.append(sub)
    for c, depth in _CHILD_ARGS[cls]:
        args[c] = _closed_subst(args[c], subs[depth])
    return cls(*args)


# ---------------------------------------------------------------------------
# Alpha-equivalence

def _bind(m: dict[Name, int], name: Name, level: int) -> dict[Name, int]:
    m2 = dict(m)
    m2[name] = level
    return m2


class _Alpha:
    """Structural comparison up to consistent renaming of bound names.

    m1 and m2 map the names bound on each side to the level k at which
    they were bound, so a bound name matches only the name bound at the
    same level; free names compare by identity and data fields (universes,
    flags) by value. Conversion reuses the walk through two hooks: same,
    run on every pair of nodes before they are compared, and locs_eq, the
    test for two locations.
    """

    def same(self, a: Expr, b: Expr, m1: dict[Name, int], m2: dict[Name, int]) -> bool:
        """Whether a and b are equal without looking inside them."""
        # a shared subterm equals itself when both sides read its free names
        # alike; comparing the maps first keeps free_vars off fresh terms
        return a is b and (m1 == m2 or all(m1.get(x, x) == m2.get(x, x) for x in free_vars(a)))

    def locs_eq(self, i: int, j: int, m1: dict[Name, int], m2: dict[Name, int], k: int) -> bool:
        return i == j

    def eq(self, a: Expr, b: Expr, m1: dict[Name, int], m2: dict[Name, int], k: int) -> bool:
        if self.same(a, b, m1, m2):
            return True
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var:
            return m1.get(a.name, a.name) == m2.get(b.name, b.name)
        if cls is Loc:
            return self.locs_eq(a.loc_id, b.loc_id, m1, m2, k)
        for f in _DATA[cls]:
            if getattr(a, f) != getattr(b, f):
                return False
        binders, d = _BINDERS[cls], 0
        # children come in field order, which never lowers the binder count
        for f, depth in _CHILDREN[cls]:
            while d < depth:
                m1 = _bind(m1, getattr(a, binders[d]), k + d)
                m2 = _bind(m2, getattr(b, binders[d]), k + d)
                d += 1
            if not self.eq(getattr(a, f), getattr(b, f), m1, m2, k + d):
                return False
        return True


_ALPHA = _Alpha()


def alpha_eq(e1: Expr, e2: Expr) -> bool:
    """Equality up to consistent renaming of bound names.

    Free names and heap locations compare by identity; flags by value.
    """
    return _ALPHA.eq(e1, e2, {}, {}, 0)
