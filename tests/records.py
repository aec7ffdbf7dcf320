"""Constructor arguments for one sample of each run-time record class: the
node types of syntax._SCHEMA, the context and its entries, heap cells,
heaps and machine states; and plug, which builds a machine state from
the frames of a step's record."""

from dtalloc.heap import UNINIT, Config, Heap, HeapCell
from dtalloc.machine import _fill
from dtalloc.syntax import (
    UNIT,
    UNIT_TY,
    App,
    Assign1,
    Assign2,
    Binding,
    Clo,
    Code,
    CodeTy,
    Context,
    CTag,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    Universe,
    Var,
)

_EMPTY_CELL = HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 0), UNINIT, UNINIT)

RECORDS = {
    Var: ("x",),
    Univ: (Universe.STAR,),
    UnitTm: (),
    UnitTy: (),
    Loc: (0,),
    Let: ("x", UNIT, UNIT_TY, Var("x")),
    Code: ("e", UNIT_TY, "a", UNIT_TY, Var("a")),
    CodeTy: ("e", UNIT_TY, "a", UNIT_TY, UNIT_TY),
    Clo: (Var("c"), UNIT, Pi("a", UNIT_TY, UNIT_TY)),
    Pi: ("a", UNIT_TY, UNIT_TY),
    App: (Var("f"), UNIT),
    Pair: (UNIT, UNIT, Sigma("x", UNIT_TY, 1, UNIT_TY, 1)),
    Sigma: ("x", UNIT_TY, 1, UNIT_TY, 0),
    Fst: (Var("p"),),
    Snd: (Var("p"),),
    Malloc: ("x", UNIT_TY, UNIT_TY),
    Assign1: (Loc(0), UNIT),
    Assign2: (Loc(0), UNIT),
    CTag: (Loc(0),),
    Binding: ("x", UNIT_TY, UNIT),
    Context: ((Binding("x", UNIT_TY),),),
    HeapCell: (_EMPTY_CELL.cell_type, UNINIT, UNINIT),
    Heap: ((_EMPTY_CELL,),),
    Config: (Heap(), UNIT),
}


def plug(frames, e):
    """e put into the holes of the frames (node, field, mark), innermost
    last; a plugged node keeps its position."""
    for node, hole, _ in reversed(frames):
        e = _fill(node, hole, e)
    return e
