"""Definitional equality for both languages.

Terms are compared by full normalization followed by a structural walk.
Normalization contracts redexes by the machines' own rules
(machine.contract) against a private scratch heap, and unfolds let-bound
context variables. It rebuilds only what it changes: a node whose
children all come back as the same objects, with no binder renamed, is
returned as it is, so a normal form shares every unchanged subterm with
its input. The structural walk treats two locations as equal when the
cells they denote agree: equivalent cell types, flags included, and
equivalent readable slots. Location ids themselves never matter, so
values that allocated in different orders still compare equal.

The type checker asks for a normal form only where it must: a type it
synthesizes for printing, or one whose head it has to see and does not
show yet (see target.infer).

Every entry point (normalize, equiv, subtype) takes the caller's
Context and reads its definitions itself, so which variables unfold is
decided here. Each shares one fuel budget between the two sides; running
out raises FuelExhausted rather than returning a wrong answer.
"""

from __future__ import annotations

from operator import is_

from .errors import FuelExhausted, StuckError
from .heap import SLOT, Heap
from .machine import contract
from .syntax import (
    _ARGS,
    _CHILD_ARGS,
    _SCOPES,
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
    Loc,
    Malloc,
    Name,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    Universe,
    Var,
    _Alpha,
    _bind,
    _in_scope,
    all_names,
    alpha_eq,
    fresh_name,
    subst,
)

DEFAULT_FUEL = 100_000


class Fuel:
    """A mutable step budget shared across one equivalence query."""

    __slots__ = ("left", "limit")

    def __init__(self, limit: int = DEFAULT_FUEL):
        self.left = limit
        self.limit = limit

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhausted(self.limit)


class Normalizer:
    """Full normalization against a scratch heap.

    A redex's evaluation positions are normalized, then machine.contract
    contracts it. The rest is conversion's own: unfolding the definitions
    in defs (memoized per name), congruence under binders, code as a
    value, and the replay rule for assignments. Each write replaces the
    scratch heap, as in the machine, never the caller's. Binders, a
    malloc's too, whose names collide with a definition (or a free name of
    one) are renamed before descending, which keeps unfolding
    capture-free. Patterns capture by field name, cheaper than by position.
    """

    def __init__(self, defs: dict[Name, Expr], heap: Heap | None = None, fuel: Fuel | None = None):
        self.defs = defs  # only read, so the two sides of a query share it
        self.memo: dict[Name, Expr] = {}
        self._unfolding: set[Name] = set()
        self.heap = heap if heap is not None else Heap()
        self.fuel = fuel if fuel is not None else Fuel()
        self._forbidden: frozenset[Name] | None = None

    # --- binder discipline -------------------------------------------------

    def _under(self, b: Name, parts: list[Expr], args=(), below=()) -> tuple[Name, list[Expr]]:
        """Rename b away from the unfolding-sensitive names if needed. The
        new name occurs in no part and names none of the node's binders
        below b, which the scope plans in below index in args: any of them
        would capture it."""
        if self._forbidden is None:
            # built on first use: most normalizations never go under a binder
            self._forbidden = frozenset(self.defs).union(*map(all_names, self.defs.values()))
        if b not in self._forbidden:
            return b, parts
        inner = [args[i] for i, _ in below]
        b2 = fresh_name(b, self._forbidden.union(inner, *map(all_names, parts)))
        return b2, [subst(p, Var(b2), b) for p in parts]

    # --- normalization -----------------------------------------------------

    def _reduce(self, redex: Expr, normal: bool = False) -> Expr:
        """redex contracted on the scratch heap and normalized, unless normal
        says the contractum is already; redex when no rule applies or it is stuck."""
        try:
            r = contract(self.heap, redex)
        except StuckError:
            return redex
        if r is None:
            return redex
        self.heap, c, _ = r
        return c if normal else self.norm(c)

    def norm(self, e: Expr) -> Expr:
        self.fuel.tick()
        match e:
            case Var(name=x):
                if x in self.defs and x not in self._unfolding:
                    if x in self.memo:
                        return self.memo[x]
                    self._unfolding.add(x)
                    try:
                        v = self.norm(self.defs[x])
                    finally:
                        self._unfolding.discard(x)
                    self.memo[x] = v
                    return v
                return e
            # code is a value and its body runs only when applied;
            # normalizing under its binders would fire allocations on the
            # scratch heap where later substitution cannot reach
            case Univ() | UnitTm() | UnitTy() | Loc() | Code():
                return e
            case Let(binder=x, bound=bound, annot=annot, body=body):
                v = self.norm(bound)
                return self._reduce(e if v is bound else Let(x, v, annot, body))
            case Pi() | Sigma() | CodeTy() | Clo() | Pair() | CTag():
                return self._descend(e)
            case App(fn=f, arg=a):
                fn = self.norm(f)
                an = self.norm(a)
                return self._reduce(e if fn is f and an is a else App(fn, an))
            case Fst(expr=inner) | Snd(expr=inner):
                t = self.norm(inner)
                # a component of a normalized pair is normal already
                return self._reduce(e if t is inner else type(e)(t), isinstance(t, Pair))
            case Malloc(binder=b, ty1=t1, ty2=t2):
                # stored types stay unevaluated, as in the machine
                b2, [t2r] = self._under(b, [t2])
                return self._reduce(e if b2 is b else Malloc(b2, t1, t2r), True)
            case Assign1(tuple_=t, value=v) | Assign2(tuple_=t, value=v):
                tn = self.norm(t)
                vn = self.norm(v)
                redex = e if tn is t and vn is v else type(e)(tn, vn)
                r = self._reduce(redex, True)
                # slots are write-once, so an assignment whose effect is
                # already recorded is the location itself
                c = self.heap.cell(tn.loc_id) if r is redex and isinstance(tn, Loc) else None
                old = None if c is None else c.read(SLOT[type(e)])
                return tn if old is not None and alpha_eq(vn, self.norm(old)) else r
        raise TypeError(f"unknown expression node: {e!r}")

    def _descend(self, e: Expr) -> Expr:
        """e with its binders renamed where _under must and its children
        normalized in field order: e itself when nothing changed, else a
        node without a position."""
        cls = type(e)
        old = _ARGS[cls](e)
        args, scopes = list(old), _SCOPES[cls]
        for d, (b, scope) in enumerate(scopes):
            live = _in_scope(args, b, scope)
            args[b], parts = self._under(args[b], [args[c] for c in live], args, scopes[d + 1 :])
            for c, p in zip(live, parts):
                args[c] = p
        for c, _ in _CHILD_ARGS[cls]:
            args[c] = self.norm(args[c])
        if all(map(is_, args, old)):
            return e
        return cls(*args[:-1])


class _Cmp(_Alpha):
    """Comparison of normal forms: alpha-equivalence that spends fuel on
    every pair of nodes and compares two locations by their cells."""

    def __init__(self, n1: Normalizer, n2: Normalizer, fuel: Fuel):
        self.n1 = n1
        self.n2 = n2
        self.fuel = fuel

    def same(self, a: Expr, b: Expr, m1: dict, m2: dict) -> bool:
        # no identity shortcut: after an assignment the two scratch heaps
        # differ, so one shared subterm holding a location can denote
        # different cells on the two sides
        self.fuel.tick()
        return False

    def locs_eq(self, i: int, j: int, m1: dict, m2: dict, k: int) -> bool:
        """Two locations are equal when their cells agree: equivalent cell
        types, flags included, and equivalent readable slots."""
        c1 = self.n1.heap.cell(i)
        c2 = self.n2.heap.cell(j)
        if c1 is None or c2 is None:
            return False
        # whole pair types, so normalization renames the binder where it must
        if not self.eq(self.n1.norm(c1.cell_type), self.n2.norm(c2.cell_type), m1, m2, k):
            return False
        for s in (1, 2):
            v1, v2 = c1.read(s), c2.read(s)
            if (v1 is None) != (v2 is None):
                return False
            if v1 is not None and not self.eq(self.n1.norm(v1), self.n2.norm(v2), m1, m2, k):
                return False
        return True

    def sub(self, a: Expr, b: Expr, m1: dict, m2: dict, k: int) -> bool:
        """a is a subtype of b: equivalence, the universe inclusion, or a
        covariant descent through function and code result types."""
        if self.eq(a, b, m1, m2, k):
            return True
        match a, b:
            case (Univ(Universe.STAR), Univ(Universe.BOX)):
                return True
            case (Pi(x1, d1, c1), Pi(x2, d2, c2)):
                return self.eq(d1, d2, m1, m2, k) and self.sub(
                    c1, c2, _bind(m1, x1, k), _bind(m2, x2, k), k + 1
                )
            case (CodeTy(n1, v1, x1, g1, r1), CodeTy(n2, v2, x2, g2, r2)):
                if not self.eq(v1, v2, m1, m2, k):
                    return False
                m1n, m2n = _bind(m1, n1, k), _bind(m2, n2, k)
                if not self.eq(g1, g2, m1n, m2n, k + 1):
                    return False
                return self.sub(r1, r2, _bind(m1n, x1, k + 1), _bind(m2n, x2, k + 1), k + 2)
        return False


def normalize(ctx: Context, e: Expr, heap: Heap | None = None, fuel: int = DEFAULT_FUEL) -> Expr:
    """Normal form of e under the definitions of ctx; scratch heap effects
    are discarded."""
    return Normalizer(ctx.defs(), heap, Fuel(fuel)).norm(e)


def equiv(
    ctx: Context, e1: Expr, e2: Expr, heap: Heap | None = None, fuel: int = DEFAULT_FUEL
) -> bool:
    """Definitional equivalence of e1 and e2 under the definitions of ctx."""
    return alpha_eq(e1, e2) or _relate(_Cmp.eq, ctx, e1, e2, heap, fuel)


def subtype(
    ctx: Context, small: Expr, big: Expr, heap: Heap | None = None, fuel: int = DEFAULT_FUEL
) -> bool:
    """Subtyping: equivalence, Star below Box, and covariant result types."""
    return alpha_eq(small, big) or _relate(_Cmp.sub, ctx, small, big, heap, fuel)


def _relate(relation, ctx: Context, a: Expr, b: Expr, heap: Heap | None, fuel: int):
    """relation (_Cmp.eq or _Cmp.sub) between the normal forms of a and b.

    Both sides unfold the definitions of ctx, normalize against their own
    scratch copy of heap and share one fuel budget. equiv and subtype
    collect the definitions here, past their alpha-equivalence shortcut.
    """
    defs = ctx.defs()
    box = Fuel(fuel)
    n1 = Normalizer(defs, heap, box)
    n2 = Normalizer(defs, heap, box)
    v1 = n1.norm(a)
    v2 = n2.norm(b)
    return relation(_Cmp(n1, n2, box), v1, v2, {}, {}, 0)
