"""Definitional equality for both languages.

Terms are compared by full normalization followed by a structural walk.
Normalization performs beta steps (application of closures, projections
of pair literals, lets), unfolds let-bound context variables, and runs
the allocation primitives against a private scratch copy of the ambient
heap. It rebuilds only what it changes: a node whose children all come
back as the same objects, with no binder renamed, is returned as it is,
so a normal form shares every unchanged subterm with its input. The
structural walk treats two locations as equal when the cells they denote
agree: same flags, equivalent cell types, and equivalent initialized
slots. Location ids themselves never matter, so values that allocated in
different orders still compare equal.

The type checker asks for a normal form only where it must: a type it
synthesizes for printing, or one whose head it has to see and does not
show yet (see target.infer).

Every entry point shares one fuel budget between the two sides; running
out raises FuelExhausted rather than returning a wrong answer.
"""

from __future__ import annotations

from .errors import FuelExhausted
from .heap import UNINIT, Heap, HeapCell
from .syntax import (
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
    _CHILD_FIELDS,
    _bind,
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

    def _read(self, loc_id: int, which: int) -> Expr | None:
        """Slot contents when the matching flag is set, else None."""
        c = self.cell(loc_id)
        if c is None:
            return None
        ty = c.cell_type
        flag, slot = (ty.flag1, c.slot1) if which == 1 else (ty.flag2, c.slot2)
        if flag == 1 and slot is not UNINIT:
            return slot
        return None

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
            case Pi(b, dom, cod):
                dn = self.norm(dom)
                b2, [cod2] = self._under(b, [cod])
                cn = self.norm(cod2)
                if dn is dom and cn is cod and b2 == b:
                    return e
                return Pi(b2, dn, cn)
            case Sigma(b, dom, f1, cod, f2):
                dn = self.norm(dom)
                b2, [cod2] = self._under(b, [cod])
                cn = self.norm(cod2)
                if dn is dom and cn is cod and b2 == b:
                    return e
                return Sigma(b2, dn, f1, cn, f2)
            case Code():
                # code is a value and its body runs only when applied;
                # normalizing under its binders would fire allocations on
                # the scratch heap where later substitution cannot reach
                return e
            case CodeTy(n, envty, x, argty, body):
                en = self.norm(envty)
                scope = [argty, body] if x != n else [argty]
                n2, scope2 = self._under(n, scope)
                argty2 = scope2[0]
                body2 = scope2[1] if x != n else body
                x2, [body3] = self._under(x, [body2])
                an, bn = self.norm(argty2), self.norm(body3)
                if en is envty and an is argty and bn is body and (n2, x2) == (n, x):
                    return e
                return CodeTy(n2, en, x2, an, bn)
            case Clo() | Pair():
                return self._same_or_new(e)
            case App(f, a):
                fn = self.norm(f)
                an = self.norm(a)
                if isinstance(fn, Clo) and isinstance(fn.code, Code):
                    c = fn.code
                    m = {c.env_binder: fn.env}
                    m[c.arg_binder] = an
                    return self.norm(subst_many(c.body, m))
                if isinstance(fn, CTag) and isinstance(fn.expr, Loc):
                    cv = self._read(fn.expr.loc_id, 1)
                    ev = self._read(fn.expr.loc_id, 2)
                    if cv is not None and ev is not None:
                        cn = self.norm(cv)
                        if isinstance(cn, Code):
                            m = {cn.env_binder: ev}
                            m[cn.arg_binder] = an
                            return self.norm(subst_many(cn.body, m))
                return e if fn is f and an is a else App(fn, an)
            case Fst(inner):
                t = self.norm(inner)
                if isinstance(t, Pair):
                    return t.fst
                if isinstance(t, Loc):
                    slot = self._read(t.loc_id, 1)
                    if slot is not None:
                        return self.norm(slot)
                return e if t is inner else Fst(t)
            case Snd(inner):
                t = self.norm(inner)
                if isinstance(t, Pair):
                    return t.snd
                if isinstance(t, Loc):
                    slot = self._read(t.loc_id, 2)
                    if slot is not None:
                        return self.norm(slot)
                return e if t is inner else Snd(t)
            case Malloc(b, t1, t2):
                # stored types stay unevaluated, as in the machine
                b2, [t2r] = self._under(b, [t2])
                cells = self._writable()
                cells.append(HeapCell(Sigma(b2, t1, 0, t2r, 0), UNINIT, UNINIT))
                return Loc(len(cells) - 1)
            case Assign1(t, v):
                tn = self.norm(t)
                vn = self.norm(v)
                if isinstance(tn, Loc):
                    c = self.cell(tn.loc_id)
                    if c is not None and c.cell_type.flag1 == 0:
                        ty = c.cell_type
                        self._writable()[tn.loc_id] = HeapCell(
                            Sigma(ty.binder, ty.dom, 1, ty.cod, ty.flag2), vn, c.slot2
                        )
                        return tn
                    # slots are write-once, so an assignment whose effect is
                    # already recorded is the location itself
                    if (
                        c is not None
                        and c.cell_type.flag1 == 1
                        and c.slot1 is not UNINIT
                        and alpha_eq(vn, self.norm(c.slot1))
                    ):
                        return tn
                return e if tn is t and vn is v else Assign1(tn, vn)
            case Assign2(t, v):
                tn = self.norm(t)
                vn = self.norm(v)
                if isinstance(tn, Loc):
                    c = self.cell(tn.loc_id)
                    if c is not None and c.flags == (1, 0):
                        ty = c.cell_type
                        self._writable()[tn.loc_id] = HeapCell(
                            Sigma(ty.binder, ty.dom, 1, ty.cod, 1), c.slot1, vn
                        )
                        return tn
                    if (
                        c is not None
                        and c.cell_type.flag2 == 1
                        and c.slot2 is not UNINIT
                        and alpha_eq(vn, self.norm(c.slot2))
                    ):
                        return tn
                return e if tn is t and vn is v else Assign2(tn, vn)
            case CTag():
                return self._same_or_new(e)
        raise TypeError(f"unknown expression node: {e!r}")

    def _same_or_new(self, e: Expr) -> Expr:
        """e with its children normalized: e itself when none changed."""
        parts = [getattr(e, f) for f in _CHILD_FIELDS[type(e)]]
        normal = [self.norm(p) for p in parts]
        if all(n is p for n, p in zip(normal, parts)):
            return e
        return type(e)(*normal)


class _Cmp:
    """Structural comparison of normal forms, chasing locations."""

    def __init__(self, n1: Normalizer, n2: Normalizer, fuel: Fuel):
        self.n1 = n1
        self.n2 = n2
        self.fuel = fuel

    def compare(self, a: Expr, b: Expr, m1: dict, m2: dict, k: int) -> bool:
        self.fuel.tick()
        match a, b:
            case (Var(x), Var(y)):
                return m1.get(x, x) == m2.get(y, y)
            case (Univ(u1), Univ(u2)):
                return u1 == u2
            case (UnitTm(), UnitTm()) | (UnitTy(), UnitTy()):
                return True
            case (Loc(i), Loc(j)):
                return self._cells_eq(i, j, m1, m2, k)
            case (Let(b1, e1, a1, t1), Let(b2, e2, a2, t2)):
                return (
                    self.compare(e1, e2, m1, m2, k)
                    and self.compare(a1, a2, m1, m2, k)
                    and self.compare(t1, t2, _bind(m1, b1, k), _bind(m2, b2, k), k + 1)
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
                    self.compare(v1, v2, m1, m2, k)
                    and self.compare(g1, g2, m1n, m2n, k + 1)
                    and self.compare(t1, t2, m1x, m2x, k + 2)
                )
            case (Clo(c1, v1, p1), Clo(c2, v2, p2)):
                return (
                    self.compare(c1, c2, m1, m2, k)
                    and self.compare(v1, v2, m1, m2, k)
                    and self.compare(p1, p2, m1, m2, k)
                )
            case (Pi(b1, d1, c1), Pi(b2, d2, c2)) | (Malloc(b1, d1, c1), Malloc(b2, d2, c2)):
                if type(a) is not type(b):
                    return False
                return self.compare(d1, d2, m1, m2, k) and self.compare(
                    c1, c2, _bind(m1, b1, k), _bind(m2, b2, k), k + 1
                )
            case (App(f1, a1), App(f2, a2)) | (Assign1(f1, a1), Assign1(f2, a2)) | (
                Assign2(f1, a1),
                Assign2(f2, a2),
            ):
                if type(a) is not type(b):
                    return False
                return self.compare(f1, f2, m1, m2, k) and self.compare(a1, a2, m1, m2, k)
            case (Pair(a1, d1, s1), Pair(a2, d2, s2)):
                return (
                    self.compare(a1, a2, m1, m2, k)
                    and self.compare(d1, d2, m1, m2, k)
                    and self.compare(s1, s2, m1, m2, k)
                )
            case (Sigma(b1, d1, f1, c1, g1), Sigma(b2, d2, f2, c2, g2)):
                return (
                    f1 == f2
                    and g1 == g2
                    and self.compare(d1, d2, m1, m2, k)
                    and self.compare(c1, c2, _bind(m1, b1, k), _bind(m2, b2, k), k + 1)
                )
            case (Fst(i1), Fst(i2)) | (Snd(i1), Snd(i2)) | (CTag(i1), CTag(i2)):
                if type(a) is not type(b):
                    return False
                return self.compare(i1, i2, m1, m2, k)
        return False

    def _cells_eq(self, i: int, j: int, m1: dict, m2: dict, k: int) -> bool:
        c1 = self.n1.cell(i)
        c2 = self.n2.cell(j)
        if c1 is None or c2 is None:
            return False
        s1, s2 = c1.cell_type, c2.cell_type
        if c1.flags != c2.flags:
            return False
        if not self.compare(self.n1.norm(s1.dom), self.n2.norm(s2.dom), m1, m2, k):
            return False
        m1b, m2b = _bind(m1, s1.binder, k), _bind(m2, s2.binder, k)
        if not self.compare(self.n1.norm(s1.cod), self.n2.norm(s2.cod), m1b, m2b, k + 1):
            return False
        for flag, v1, v2 in ((s1.flag1, c1.slot1, c2.slot1), (s1.flag2, c1.slot2, c2.slot2)):
            if flag != 1:
                continue
            if (v1 is UNINIT) != (v2 is UNINIT):
                return False
            if v1 is UNINIT:
                continue
            if not self.compare(self.n1.norm(v1), self.n2.norm(v2), m1, m2, k):
                return False
        return True

    def sub(self, a: Expr, b: Expr, m1: dict, m2: dict, k: int) -> bool:
        """a is a subtype of b: equivalence, the universe inclusion, or a
        covariant descent through function and code result types."""
        if self.compare(a, b, m1, m2, k):
            return True
        match a, b:
            case (Univ(Universe.STAR), Univ(Universe.BOX)):
                return True
            case (Pi(x1, d1, c1), Pi(x2, d2, c2)):
                return self.compare(d1, d2, m1, m2, k) and self.sub(
                    c1, c2, _bind(m1, x1, k), _bind(m2, x2, k), k + 1
                )
            case (CodeTy(n1, v1, x1, g1, r1), CodeTy(n2, v2, x2, g2, r2)):
                if not self.compare(v1, v2, m1, m2, k):
                    return False
                m1n, m2n = _bind(m1, n1, k), _bind(m2, n2, k)
                if not self.compare(g1, g2, m1n, m2n, k + 1):
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
    """Definitional equivalence of e1 and e2 under the given definitions.

    Both sides normalize against their own scratch copy of heap and share
    one fuel budget.
    """
    if alpha_eq(e1, e2):
        return True
    box = Fuel(fuel)
    n1 = Normalizer(defs, heap, box)
    n2 = Normalizer(defs, heap, box)
    v1 = n1.norm(e1)
    v2 = n2.norm(e2)
    return _Cmp(n1, n2, box).compare(v1, v2, {}, {}, 0)


def subtype(
    defs: dict[Name, Expr],
    small: Expr,
    big: Expr,
    heap: Heap | None = None,
    fuel: int = DEFAULT_FUEL,
) -> bool:
    """Subtyping: equivalence, Star below Box, and covariant result types."""
    if alpha_eq(small, big):
        return True
    box = Fuel(fuel)
    n1 = Normalizer(defs, heap, box)
    n2 = Normalizer(defs, heap, box)
    a = n1.norm(small)
    b = n2.norm(big)
    return _Cmp(n1, n2, box).sub(a, b, {}, {}, 0)
