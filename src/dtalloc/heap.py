"""Heaps of two-slot cells and machine configurations for the target."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import _CHILD_FIELDS, Expr, Loc, Sigma


@dataclass(frozen=True)
class _Uninit:
    def __repr__(self) -> str:
        return "Uninit"


UNINIT = _Uninit()

Slot = "Expr | _Uninit"


@dataclass(frozen=True)
class HeapCell:
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


@dataclass(frozen=True)
class Heap:
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


@dataclass(frozen=True)
class Config:
    """A machine state: heap plus the expression under reduction."""

    heap: Heap
    expr: Expr


def locs_in(e: Expr) -> set[int]:
    """All location ids mentioned by an expression."""
    out: set[int] = set()
    stack = [e]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Loc):
            out.add(cur.loc_id)
        for f in _CHILD_FIELDS[type(cur)]:
            stack.append(getattr(cur, f))
    return out
