"""Definitional equality for both languages.

Terms are compared by full normalization followed by a structural walk.
Normalization performs beta steps (application of closures, projections
of pair literals, lets), unfolds let-bound context variables, and runs
the allocation primitives against a private scratch copy of the ambient
heap. It rebuilds only what it changes: a node whose children all come
back as the same objects, with no binder renamed, is returned as it is,
so a normal form shares every unchanged subterm with its input. The
structural walk treats two locations as equal when the cells they denote
agree: equivalent cell types, flags included, and equivalent readable
slots. Location ids themselves never matter, so values that allocated in
different orders still compare equal.

The type checker asks for a normal form only where it must: a type it
synthesizes for printing, or one whose head it has to see and does not
show yet (see target.infer).

Every entry point shares one fuel budget between the two sides; running
out raises FuelExhausted rather than returning a wrong answer.
"""

from __future__ import annotations

from operator import is_

from .errors import FuelExhausted
from .heap import SLOT, UNINIT, Heap, HeapCell, writable
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
    subst_many,
)

DEFAULT_FUEL = 100_000


class Fuel:
    """A mutable step budget shared across one equivalence query."""

    __slots__ = ("left", "limit")

    def __init__(self, limit: int = DEFAULT_FUEL):
        self.left = limit
        self.limit = limit

    def tick(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise FuelExhausted(self.limit)


class Normalizer:
    """Full normalization against a scratch heap.

    defs maps let-bound context variables to their definitions; unfolding
    is memoized per name. The scratch heap reads the given heap's cells
    until the first allocation or assignment, which copies the cell list,
    so normalization never touches the caller's state. Binders whose
    names collide with a definition (or with a free name of one) are
    renamed before descending, which keeps unfolding capture-free.
    """

    def __init__(self, defs: dict[Name, Expr], heap: Heap | None = None, fuel: Fuel | None = None):
        self.defs = dict(defs)
        self.memo: dict[Name, Expr] = {}
        self._unfolding: set[Name] = set()
        # the caller's tuple until the first write, then a private list
        self.cells: tuple[HeapCell, ...] | list[HeapCell] = heap.cells if heap is not None else ()
        self.fuel = fuel if fuel is not None else Fuel()
        self._forbidden: frozenset[Name] | None = None

    # --- binder discipline -------------------------------------------------

    def _under(self, b: Name, parts: list[Expr]) -> tuple[Name, list[Expr]]:
        """Rename b away from the unfolding-sensitive names if needed."""
        if self._forbidden is None:
            # built on first use: most normalizations never go under a binder
            self._forbidden = frozenset(self.defs).union(*map(all_names, self.defs.values()))
        if b not in self._forbidden:
            return b, parts
        b2 = fresh_name(b, self._forbidden.union(*map(all_names, parts)))
        return b2, [subst(p, Var(b2), b) for p in parts]

    # --- scratch heap ------------------------------------------------------

    def cell(self, loc_id: int) -> HeapCell | None:
        if 0 <= loc_id < len(self.cells):
            return self.cells[loc_id]
        return None

    def _writable(self) -> list[HeapCell]:
        if isinstance(self.cells, tuple):
            self.cells = list(self.cells)
        return self.cells

    # --- normalization -----------------------------------------------------

    def norm(self, e: Expr) -> Expr:
        self.fuel.tick()
        match e:
            case Var(x):
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
            case Univ() | UnitTm() | UnitTy() | Loc():
                return e
            case Let(x, bound, _, body):
                v = self.norm(bound)
                return self.norm(subst(body, v, x))
            case Code():
                # code is a value and its body runs only when applied;
                # normalizing under its binders would fire allocations on
                # the scratch heap where later substitution cannot reach
                return e
            case Pi() | Sigma() | CodeTy() | Clo() | Pair() | CTag():
                return self._descend(e)
            case App(f, a):
                fn = self.norm(f)
                an = self.norm(a)
                if isinstance(fn, Clo) and isinstance(fn.code, Code):
                    c = fn.code
                    m = {c.env_binder: fn.env}
                    m[c.arg_binder] = an
                    return self.norm(subst_many(c.body, m))
                if isinstance(fn, CTag) and isinstance(fn.expr, Loc):
                    c = self.cell(fn.expr.loc_id)
                    cv, ev = (None, None) if c is None else (c.read(1), c.read(2))
                    if cv is not None and ev is not None:
                        cn = self.norm(cv)
                        if isinstance(cn, Code):
                            m = {cn.env_binder: ev}
                            m[cn.arg_binder] = an
                            return self.norm(subst_many(cn.body, m))
                return e if fn is f and an is a else App(fn, an)
            case Fst(inner) | Snd(inner):
                i = SLOT[type(e)]
                t = self.norm(inner)
                if isinstance(t, Pair):
                    return t.fst if i == 1 else t.snd
                if isinstance(t, Loc):
                    c = self.cell(t.loc_id)
                    slot = None if c is None else c.read(i)
                    if slot is not None:
                        return self.norm(slot)
                return e if t is inner else type(e)(t)
            case Malloc(b, t1, t2):
                # stored types stay unevaluated, as in the machine
                b2, [t2r] = self._under(b, [t2])
                cells = self._writable()
                cells.append(HeapCell(Sigma(b2, t1, 0, t2r, 0), UNINIT, UNINIT))
                return Loc(len(cells) - 1)
            case Assign1(t, v) | Assign2(t, v):
                i = SLOT[type(e)]
                tn = self.norm(t)
                vn = self.norm(v)
                c = self.cell(tn.loc_id) if isinstance(tn, Loc) else None
                if c is not None:
                    if writable(c.cell_type, i):
                        self._writable()[tn.loc_id] = c.write(i, vn)
                        return tn
                    # slots are write-once, so an assignment whose effect is
                    # already recorded is the location itself
                    old = c.read(i)
                    if old is not None and alpha_eq(vn, self.norm(old)):
                        return tn
                return e if tn is t and vn is v else type(e)(tn, vn)
        raise TypeError(f"unknown expression node: {e!r}")

    def _descend(self, e: Expr) -> Expr:
        """e with its binders renamed where _under must and its children
        normalized in field order: e itself when nothing changed, else a
        node without a position."""
        cls = type(e)
        old = _ARGS[cls](e)
        args = list(old)
        for b, scope in _SCOPES[cls]:
            live = _in_scope(args, b, scope)
            args[b], parts = self._under(args[b], [args[c] for c in live])
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
        c1 = self.n1.cell(i)
        c2 = self.n2.cell(j)
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


def normalize(
    defs: dict[Name, Expr], e: Expr, heap: Heap | None = None, fuel: int = DEFAULT_FUEL
) -> Expr:
    """Normal form of e; scratch heap effects are discarded."""
    return Normalizer(defs, heap, Fuel(fuel)).norm(e)


def equiv(
    defs: dict[Name, Expr],
    e1: Expr,
    e2: Expr,
    heap: Heap | None = None,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Definitional equivalence of e1 and e2 under the given definitions."""
    return alpha_eq(e1, e2) or _relate(_Cmp.eq, defs, e1, e2, heap, fuel)


def subtype(
    defs: dict[Name, Expr],
    small: Expr,
    big: Expr,
    heap: Heap | None = None,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Subtyping: equivalence, Star below Box, and covariant result types."""
    return alpha_eq(small, big) or _relate(_Cmp.sub, defs, small, big, heap, fuel)


def _relate(relation, defs: dict[Name, Expr], a: Expr, b: Expr, heap: Heap | None, fuel: int):
    """relation (_Cmp.eq or _Cmp.sub) between the normal forms of a and b.

    Both sides normalize against their own scratch copy of heap and share
    one fuel budget.
    """
    box = Fuel(fuel)
    n1 = Normalizer(defs, heap, box)
    n2 = Normalizer(defs, heap, box)
    v1 = n1.norm(a)
    v2 = n2.norm(b)
    return relation(_Cmp(n1, n2, box), v1, v2, {}, {}, 0)
