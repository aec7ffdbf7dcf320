"""Target language: heap-indexed typing, flag discipline, the machine,
and heap well-formedness."""

from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from dtalloc.conversion import equiv, normalize, subtype
from dtalloc.errors import ErrKind, FuelExhausted, StuckError, TypeCheckError
from dtalloc.heap import Config, Heap, HeapCell, UNINIT
from dtalloc.sexpr import Lang, parse
from dtalloc.source import src_infer
from dtalloc.target import (
    _sort_of,
    heap_wf,
    tgt_equiv,
    tgt_eval,
    tgt_infer,
    tgt_normalize,
    tgt_steps,
    tgt_subtype,
    tgt_trace,
    tgt_wf,
)
from dtalloc.syntax import (
    Assign2,
    BOX,
    Clo,
    Code,
    CodeTy,
    Context,
    Expr,
    Fst,
    Let,
    Loc,
    Pair,
    Pi,
    STAR,
    Sigma,
    Snd,
    UNIT,
    UNIT_TY,
    Universe,
    Var,
    alpha_eq,
)

CHAIN = """
(let (y (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0)))
  (let (y1 (assign1 y unit) (Sigma (x Unit 1) (Unit 0)))
    (let (y2 (assign2 y1 unit) (Sigma (x Unit 1) (Unit 1)))
      y2)))
"""


def tparse(text):
    return parse(text, Lang.TARGET)


def infer(text, heap=None, ctx=None):
    return tgt_infer(heap or Heap(), ctx or Context(), tparse(text))


def err_kind(text, heap=None):
    with pytest.raises(TypeCheckError) as exc:
        infer(text, heap)
    return exc.value.kind


# ---------------------------------------------------------------------------
# Typing of allocation forms

def test_malloc_types_fully_uninitialized():
    ty = infer("(malloc (x Unit) Unit)")
    assert ty == Sigma("x", UNIT_TY, 0, UNIT_TY, 0)


def test_assign_chain_flag_progression():
    t1 = infer("(assign1 (malloc (x Unit) Unit) unit)")
    assert (t1.flag1, t1.flag2) == (1, 0)
    t2 = infer("(assign2 (assign1 (malloc (x Unit) Unit) unit) unit)")
    assert (t2.flag1, t2.flag2) == (1, 1)
    assert isinstance(infer(CHAIN), Sigma)


def test_flag_discipline_rejections():
    assert err_kind("(fst (malloc (x Unit) Unit))") is ErrKind.FLAG_ERROR
    assert err_kind("(snd (assign1 (malloc (x Unit) Unit) unit))") is ErrKind.FLAG_ERROR
    assert err_kind("(assign2 (malloc (x Unit) Unit) unit)") is ErrKind.FLAG_ERROR
    assert (
        err_kind("(assign1 (assign1 (malloc (x Unit) Unit) unit) unit)")
        is ErrKind.FLAG_ERROR
    )


def test_assign1_value_checked_against_domain():
    assert err_kind("(assign1 (malloc (x Unit) Unit) Unit)") is ErrKind.SUBTYPE_FAIL


def test_mixed_sort_pair_type_is_legal_in_target():
    # a small first component under a large second one
    ty = tgt_infer(Heap(), Context(), Sigma("x", UNIT_TY, 0, STAR, 0))
    assert ty == BOX
    chain = "(assign2 (assign1 (malloc (x Unit) Star) unit) Unit)"
    assert isinstance(infer(chain), Sigma)


def test_ctag_typing_and_rejections():
    code = "(code ((n Unit) (x Unit)) x)"
    good = f"(ctag (assign2 (assign1 (malloc (z (Code ((n Unit) (x Unit)) Unit)) Unit) {code}) unit))"
    ty = infer(good)
    assert alpha_eq(ty, Pi("x", UNIT_TY, UNIT_TY))
    assert (
        err_kind("(ctag (assign2 (assign1 (malloc (x Unit) Unit) unit) unit))")
        is ErrKind.NOT_A_FUNCTION
    )
    assert (
        err_kind(f"(ctag (assign1 (malloc (z (Code ((n Unit) (x Unit)) Unit)) Unit) {code}))")
        is ErrKind.FLAG_ERROR
    )


# Every form the target lacks, at a position of its own, and the message
# that rejects it.
NOT_TARGET = [
    (
        Pair(UNIT, UNIT, Sigma("x", UNIT_TY, 1, UNIT_TY, 1), pos=(2, 5)),
        "pair literal must be compiled to allocation",
    ),
    (
        Clo(
            Code("n", UNIT_TY, "x", UNIT_TY, Var("x")), UNIT, Pi("x", UNIT_TY, UNIT_TY), pos=(2, 5)
        ),
        "closure literal must be compiled to allocation",
    ),
]


def test_pair_and_clo_literals_rejected():
    for term, message in NOT_TARGET:
        found = set()
        for e in (term, Let("y", UNIT, UNIT_TY, term, pos=(1, 1))):
            for judge in (tgt_wf, lambda t: tgt_infer(Heap(), Context(), t)):
                with pytest.raises(TypeCheckError) as exc:
                    judge(e)
                found.add((exc.value.kind, exc.value.message, exc.value.pos))
        assert found == {(ErrKind.LANG_VIOLATION, message, (2, 5))}, term


def test_loc_typing_from_heap():
    heap = Heap().alloc(HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 0), UNINIT, UNINIT))[0]
    ty = tgt_infer(heap, Context(), Loc(0))
    assert (ty.flag1, ty.flag2) == (0, 0)
    with pytest.raises(TypeCheckError) as exc:
        tgt_infer(heap, Context(), Loc(7))
    assert exc.value.kind is ErrKind.UNKNOWN_LOC


# ---------------------------------------------------------------------------
# Machine

def test_machine_rule_sequence():
    states = tgt_steps(Config(Heap(), tparse(CHAIN)))
    rules = [r for _, r in states]
    assert rules == ["init", "malloc", "let", "assign1", "let", "assign2", "let"]
    final = states[-1][0]
    assert final.expr == Loc(0)
    assert final.heap.cell(0).flags == (1, 1)


def test_machine_flags_are_monotone():
    states = tgt_steps(Config(Heap(), tparse(CHAIN)))
    seen = []
    for cfg, _ in states:
        c = cfg.heap.cell(0)
        seen.append(None if c is None else c.flags)
    filled = [f for f in seen if f is not None]
    assert filled == sorted(filled)


def test_machine_does_not_evaluate_stored_types():
    # the cell type is recorded as written, not normalized
    prog = "(malloc (x (fst (assign2 (assign1 (malloc (a Star) Star) Unit) Unit))) Unit)"
    final = tgt_eval(tparse(prog))
    cell = final.heap.cell(final.expr.loc_id)
    assert isinstance(cell.cell_type.dom, Fst)


def test_app_ctag_step():
    prog = """
    (app (ctag (assign2 (assign1 (malloc (z (Code ((n Unit) (x Unit)) Unit)) Unit)
                                 (code ((n Unit) (x Unit)) x))
                        unit))
         unit)
    """
    final = tgt_eval(tparse(prog))
    assert final.expr == UNIT
    rules = [r for _, r in tgt_steps(Config(Heap(), tparse(prog)))]
    assert rules[-1] == "app-ctag"


def test_projections_read_after_both_flags():
    prog = f"(snd {CHAIN.strip()})"
    final = tgt_eval(tparse(prog))
    assert final.expr == UNIT


def test_machine_stuck_on_bad_flags():
    with pytest.raises(StuckError):
        tgt_eval(tparse("(fst (malloc (x Unit) Unit))"))


def test_machine_fuel():
    with pytest.raises(FuelExhausted):
        tgt_eval(tparse(CHAIN), fuel=2)


def test_trace_carries_heap_summaries():
    lines = tgt_trace(Config(Heap(), tparse(CHAIN)))
    assert lines[0].endswith("| empty")
    assert lines[1].endswith("| loc=0 flags=(0,0)")
    assert lines[-1].endswith("| loc=0 flags=(1,1)")
    assert lines[1].split(" | ")[1] == "malloc"


# ---------------------------------------------------------------------------
# Heap well-formedness

def test_heap_wf_accepts_machine_heaps():
    final = tgt_eval(tparse(CHAIN))
    report = heap_wf(final.heap)
    assert report.ok, report.problems


def test_heap_wf_rejects_backwards_flags():
    cell = HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 1), UNINIT, UNIT)
    report = heap_wf(Heap((cell,)))
    assert not report.ok


def test_heap_wf_rejects_missing_slot():
    cell = HeapCell(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), UNINIT, UNINIT)
    report = heap_wf(Heap((cell,)))
    assert not report.ok


def test_heap_wf_rejects_dangling_reference():
    inner = Sigma("x", UNIT_TY, 1, UNIT_TY, 1)
    cell = HeapCell(Sigma("p", inner, 1, UNIT_TY, 0), Loc(9), UNINIT)
    report = heap_wf(Heap((cell,)))
    assert not report.ok


def test_heap_wf_rejects_ill_typed_slot():
    cell = HeapCell(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), UNIT_TY, UNINIT)
    report = heap_wf(Heap((cell,)))
    assert not report.ok


# ---------------------------------------------------------------------------
# Conversion over heaps

def test_equiv_chases_locations():
    cell = HeapCell(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), UNIT, UNINIT)
    heap, l1 = Heap().alloc(cell)
    heap, l2 = heap.alloc(cell)
    assert l1 != l2
    assert tgt_equiv(heap, Context(), Loc(l1), Loc(l2))


def test_equiv_distinguishes_cell_contents():
    s = Sigma("x", UNIT_TY, 1, UNIT_TY, 0)
    heap = Heap((HeapCell(s, UNIT, UNINIT), HeapCell(Sigma("x", STAR, 1, UNIT_TY, 0), UNIT_TY, UNINIT)))
    assert not tgt_equiv(heap, Context(), Loc(0), Loc(1))


def test_normalize_runs_allocation_on_scratch():
    # normalizing a chain must not touch the real heap
    heap = Heap()
    n = tgt_normalize(heap, Context(), tparse(f"(snd {CHAIN.strip()})"))
    assert n == UNIT
    assert heap.cells == ()


def test_subtype_star_box_over_heap():
    assert tgt_subtype(Heap(), Context(), STAR, BOX)
    assert not tgt_subtype(Heap(), Context(), BOX, STAR)


def test_replayed_assignment_converts_to_location():
    # once a slot is written, re-asserting the same write is a no-op
    final = tgt_eval(tparse(CHAIN))
    loc = final.expr
    replay = Assign2(loc, UNIT)
    assert tgt_equiv(final.heap, Context(), replay, loc)
    other = Assign2(loc, UNIT_TY)
    assert not tgt_equiv(final.heap, Context(), other, loc)


def test_normalize_equiv_and_subtype_leave_the_callers_heap_alone():
    heap = tgt_eval(tparse(
        "(let (y (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0))) y)"
    )).heap
    before = heap.cells
    fill = tparse("(assign2 (assign1 y unit) unit)")
    ctx = Context().extend("y", Sigma("x", UNIT_TY, 0, UNIT_TY, 0), Loc(0))
    # the assignments go through on the scratch heap, so the second
    # projection of the filled cell normalizes to unit
    assert tgt_normalize(heap, ctx, Snd(fill)) == UNIT
    assert tgt_equiv(heap, ctx, Snd(fill), UNIT)
    assert tgt_subtype(heap, ctx, Snd(fill), UNIT)
    assert normalize(ctx.defs(), tparse(CHAIN), heap=heap) == Loc(1)
    assert equiv({}, tparse(CHAIN), tparse(CHAIN), heap=heap)
    assert subtype({}, Fst(tparse(CHAIN)), UNIT, heap=heap)
    assert heap.cells is before
    assert heap.cells == (HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 0), UNINIT, UNINIT),)


# ---------------------------------------------------------------------------
# The universe memo of closed heap-free types

def _outcome(heap, ctx, ty):
    """The universe of ty, or the kind, message and position of its error."""
    try:
        return _sort_of(Lang.TARGET, heap, ctx, ty, "type")
    except TypeCheckError as err:
        return err.kind, err.message, err.pos


def test_universe_is_memoized_for_closed_heap_free_types():
    ty = tparse("(Sigma (x Unit 1) ((Pi (a Unit) Star) 0))")
    assert _sort_of(Lang.TARGET, Heap(), Context(), ty, "type") is Universe.BOX
    assert ty.__dict__["_tgt_sort"] is Universe.BOX


def test_universe_is_not_memoized_for_heap_open_or_ill_sorted_types():
    heap, i = Heap().alloc(HeapCell(Sigma("x", STAR, 1, STAR, 1), UNIT_TY, UNIT_TY))
    with_loc = Sigma("a", Fst(Loc(i)), 1, UNIT_TY, 1)
    with_malloc = tparse(
        "(let (p (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0))) Unit)"
    )
    open_ty = tparse("(Sigma (a t 1) (Unit 1))")
    ctx = Context().extend("t", STAR)
    for ty in (with_loc, with_malloc, open_ty):
        assert _sort_of(Lang.TARGET, heap, ctx, ty, "type") is Universe.STAR
        assert "_tgt_sort" not in ty.__dict__
    ill_sorted = tparse("(Sigma (a unit 1) (Unit 1))")
    first = _outcome(heap, ctx, ill_sorted)
    assert first[0] is ErrKind.UNIVERSE_ERROR
    assert "_tgt_sort" not in ill_sorted.__dict__
    assert _outcome(Heap(), Context(), ill_sorted) == first


def test_a_target_universe_kept_on_a_type_never_answers_for_the_source():
    mixed = Sigma("x", UNIT_TY, 1, STAR, 1)
    fn = Pi("a", mixed, UNIT_TY)
    tgt_infer(Heap(), Context(), fn)
    assert mixed.__dict__["_tgt_sort"] is Universe.BOX
    with pytest.raises(TypeCheckError) as exc:
        src_infer(Context(), fn)
    assert exc.value.kind is ErrKind.UNIVERSE_ERROR
    assert exc.value.message == "pair type components live in different universes"
    well_sorted = Sigma("x", UNIT_TY, 1, UNIT_TY, 1)
    src_infer(Context(), Pi("a", well_sorted, UNIT_TY))
    assert "_tgt_sort" not in well_sorted.__dict__


def _fresh_copy(e):
    """A structurally equal term whose nodes carry no memos."""
    if not isinstance(e, Expr):
        return e
    return type(e)(**{f.name: _fresh_copy(getattr(e, f.name)) for f in fields(e)})


_BINDERS = st.sampled_from(("x", "y", "z"))
_FLAGS = st.integers(0, 1)

# types over the binders x, y and z: some are open, some ill-sorted, and
# the binders collide with the names the context below defines
_TYPES = st.recursive(
    st.sampled_from((UNIT_TY, STAR, UNIT, Var("x"), Var("z"))),
    lambda inner: st.one_of(
        st.builds(Pi, _BINDERS, inner, inner),
        st.builds(Sigma, _BINDERS, inner, _FLAGS, inner, _FLAGS),
        st.builds(Let, _BINDERS, inner, inner, inner),
        st.builds(Let, _BINDERS, st.just(UNIT_TY), st.just(STAR), inner),
        st.builds(CodeTy, _BINDERS, inner, _BINDERS, inner, inner),
        st.builds(Fst, inner),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(_TYPES)
def test_memoized_universe_equals_a_fresh_computation_under_any_context_and_heap(ty):
    heap = tgt_eval(tparse(CHAIN)).heap
    ctx = Context().extend("x", STAR, UNIT_TY).extend("y", UNIT_TY, UNIT).extend("z", STAR)
    first = _outcome(Heap(), Context(), ty)
    memoized = _outcome(heap, ctx, ty)
    if "_tgt_sort" in ty.__dict__:
        assert memoized == first == ty.__dict__["_tgt_sort"]
    assert memoized == _outcome(heap, ctx, _fresh_copy(ty))
