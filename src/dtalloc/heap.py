"""Heaps of two-slot cells, the flag protocol that fills them, and
machine configurations for the target.

The flag protocol is stated here once, for typing, the machine,
normalization and the heap audits alike. A tuple is allocated at flags
(0,0) and filled left to right: slot 1 may be written while flag 1 is 0,
slot 2 only at flags (1,0), and each write sets its slot's flag. A slot
may be read only when its flag is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    _CHILD_FIELDS,
    Assign1,
    Assign2,
    Expr,
    Fst,
    Loc,
    Record,
    Sigma,
    Snd,
    _memoize,
    record,
    subst,
)

# the slot that each projection reads and each assignment writes
SLOT = {Fst: 1, Snd: 2, Assign1: 1, Assign2: 2}


def writable(ty: Sigma, i: int) -> bool:
    """Slot i of a tuple at ty may be written: slot 1 while flag 1 is 0,
    slot 2 at flags (1,0)."""
    return ty.flag1 == 0 if i == 1 else (ty.flag1 == 1 and ty.flag2 == 0)


def filled(ty: Sigma, i: int) -> Sigma:
    """The pair type of a tuple at ty once slot i is written."""
    return Sigma(ty.binder, ty.dom, 1, ty.cod, ty.flag2 if i == 1 else 1)


def readable(ty: Sigma, i: int) -> bool:
    """Slot i of a tuple at ty may be read: its flag is 1."""
    return (ty.flag1 if i == 1 else ty.flag2) == 1


def slot_type(ty: Sigma, i: int, t: Expr) -> Expr:
    """The type of slot i of the tuple t at ty; slot 2 sees slot 1 as fst t."""
    return ty.dom if i == 1 else subst(ty.cod, Fst(t), ty.binder)


@dataclass(frozen=True)
class _Uninit:
    def __repr__(self) -> str:
        return "Uninit"


UNINIT = _Uninit()


@record
class HeapCell(Record):
    """One allocated tuple: its flagged pair type and two slots.

    cell_type carries the current flags; a slot is UNINIT exactly when the
    matching flag is 0.
    """

    cell_type: Sigma
    slot1: Expr | _Uninit
    slot2: Expr | _Uninit

    @property
    def flags(self) -> tuple[int, int]:
        return (self.cell_type.flag1, self.cell_type.flag2)

    def slot(self, i: int) -> Expr | _Uninit:
        return self.slot1 if i == 1 else self.slot2

    def read(self, i: int) -> Expr | None:
        """Slot i when it is readable and holds a value, else None."""
        if readable(self.cell_type, i):
            v = self.slot(i)
            if v is not UNINIT:
                return v
        return None

    def write(self, i: int, v: Expr) -> HeapCell:
        """This cell with v in slot i and the pair type filled there."""
        ty = filled(self.cell_type, i)
        return HeapCell(ty, v, self.slot2) if i == 1 else HeapCell(ty, self.slot1, v)


@record
class Heap(Record):
    """Append-only store; cell ids are exactly 0 .. len(cells)-1."""

    cells: tuple[HeapCell, ...] = ()

    def cell(self, loc_id: int) -> HeapCell | None:
        if 0 <= loc_id < len(self.cells):
            return self.cells[loc_id]
        return None

    def alloc(self, cell: HeapCell) -> tuple[Heap, int]:
        return Heap(self.cells + (cell,)), len(self.cells)

    def with_cell(self, loc_id: int, cell: HeapCell) -> Heap:
        cells = list(self.cells)
        cells[loc_id] = cell
        return Heap(tuple(cells))

    def summary(self) -> str:
        if not self.cells:
            return "empty"
        return " ".join(
            f"loc={i} flags=({c.cell_type.flag1},{c.cell_type.flag2})"
            for i, c in enumerate(self.cells)
        )


@record
class Config(Record):
    """A machine state: heap plus the expression under reduction, and in a
    traced run the record (frames, redex, contractum) of the step that
    made it, neither compared nor shown."""

    heap: Heap
    expr: Expr
    step: tuple | None = field(default=None, compare=False, repr=False)


_NO_LOCS: frozenset[int] = frozenset()


def locs_in(e: Expr) -> frozenset[int]:
    """All location ids mentioned by an expression, computed once per node
    and cached on it, as syntax.free_vars is."""
    locs = e.__dict__.get("_locs")
    return locs if locs is not None else _memoize(e, "_locs", _locs_in)


def _locs_in(e: Expr) -> frozenset[int]:
    if type(e) is Loc:
        return frozenset((e.loc_id,))
    out = _NO_LOCS
    for f in _CHILD_FIELDS[type(e)]:
        locs = locs_in(getattr(e, f))
        if locs:
            out = out | locs
    return out
