"""Target language: heap-indexed typing, flag discipline, the machine,
and heap well-formedness."""

from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dtalloc.alloc import translate, translate_ctx
from dtalloc.conversion import equiv, normalize, subtype
from dtalloc.errors import ErrKind, FuelExhausted, StuckError, TypeCheckError
from dtalloc.harness import GenSpec, _heap_transition_problems, gen_typed, load_corpus
from dtalloc.heap import Config, Heap, HeapCell, UNINIT
from dtalloc.sexpr import Lang, parse
from dtalloc.source import src_infer
from dtalloc.target import (
    _ensure_subtype,
    _infer_sort,
    _norm_ty,
    _sort_of,
    _universe,
    check,
    heap_wf,
    infer as synthesize,
    tgt_eval,
    tgt_infer,
    tgt_step,
    tgt_steps,
    tgt_subtype,
    tgt_trace,
    wf,
)
from dtalloc.syntax import (
    _CHILD_FIELDS,
    Assign1,
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


_UNPAIRED = (ErrKind.NOT_A_FUNCTION, "ctag expects a code-and-environment pair")


@pytest.mark.parametrize("lang, text, rejection", [
    (Lang.SOURCE, "(clo unit unit (Pi (x Unit) Unit))",
     (ErrKind.NOT_A_FUNCTION, "closure over a term that is not code")),
    (Lang.TARGET, "(assign1 unit unit)", (ErrKind.NOT_A_PAIR, "assignment to a non-tuple")),
    (Lang.TARGET, "(ctag unit)", _UNPAIRED),
    # a full tuple whose environment type, Star, is not the code's, Unit
    (Lang.TARGET, "(ctag (assign2 (assign1 (malloc (z (Code ((n Unit) (x Unit)) Unit)) Star)"
     " (code ((n Unit) (x Unit)) x)) Unit))", _UNPAIRED),
])
def test_rejections_of_a_non_code_closure_a_non_tuple_write_and_a_bad_ctag(lang, text, rejection):
    with pytest.raises(TypeCheckError) as exc:
        synthesize(lang, Heap(), Context(), parse(text, lang))
    assert (exc.value.kind, exc.value.message) == rejection


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
            for judge in (lambda t: wf(Lang.TARGET, t), lambda t: tgt_infer(Heap(), Context(), t)):
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
    states = tgt_steps(tparse(CHAIN))
    rules = [r for _, r in states]
    assert rules == ["init", "malloc", "let", "assign1", "let", "assign2", "let"]
    final = states[-1][0]
    assert final.expr == Loc(0)
    assert final.heap.cell(0).flags == (1, 1)


def test_machine_flags_are_monotone():
    states = tgt_steps(tparse(CHAIN))
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
    rules = [r for _, r in tgt_steps(tparse(prog))]
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
    lines = tgt_trace(tparse(CHAIN))
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


@pytest.mark.parametrize("cell, problem", [
    (HeapCell(UNIT_TY, UNINIT, UNINIT), "cell 0: cell type is not a pair type"),
    (HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 0), UNIT, UNINIT),
     "cell 0: slot 1 written but flag is 0"),
    (HeapCell(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), Let("u", UNIT, UNIT_TY, Var("u")), UNINIT),
     "cell 0: slot 1 holds a non-value"),
    (HeapCell(Sigma("x", UNIT_TY, 0, Snd(Loc(5)), 0), UNINIT, UNINIT),
     "cell 0: cell type mentions dangling location 5"),
])
def test_heap_wf_names_each_problem_of_a_cell(cell, problem):
    report = heap_wf(Heap((cell,)))
    assert not report.ok
    assert problem in report.problems


def _fresh_cells(heap):
    """heap with every cell rebuilt, so that no audit is cached on it."""
    return Heap(tuple(HeapCell(c.cell_type, c.slot1, c.slot2) for c in heap.cells))


def test_heap_wf_audits_again_every_cell_that_reaches_a_replaced_cell(monkeypatch):
    import dtalloc.target as target

    audited = []
    audit = target._audit_cell

    def counted(heap, i, cell):
        audited.append(i)
        return audit(heap, i, cell)

    monkeypatch.setattr(target, "_audit_cell", counted)
    units = Sigma("a", UNIT_TY, 1, UNIT_TY, 1)
    pair_of_units = Sigma("a", units, 1, UNIT_TY, 1)
    # cell 0 holds cell 1, which holds cell 2; cell 3 is reached by none
    heap = Heap((
        HeapCell(Sigma("a", pair_of_units, 1, UNIT_TY, 1), Loc(1), UNIT),
        HeapCell(pair_of_units, Loc(2), UNIT),
        HeapCell(units, UNIT, UNIT),
        HeapCell(units, UNIT, UNIT),
    ))
    assert heap_wf(heap).ok
    assert sorted(audited) == [0, 1, 2, 3]
    audited.clear()
    assert heap_wf(heap).ok
    assert audited == []
    retyped = heap.with_cell(2, HeapCell(Sigma("a", STAR, 1, STAR, 1), UNIT_TY, UNIT_TY))
    report = heap_wf(retyped)
    assert sorted(audited) == [0, 1, 2]
    assert not report.ok
    assert report == heap_wf(_fresh_cells(retyped))


def test_heap_wf_reuses_an_audit_only_at_its_index_among_the_cells_it_read():
    units = Sigma("a", UNIT_TY, 1, UNIT_TY, 1)
    holder = HeapCell(Sigma("a", units, 1, UNIT_TY, 1), Loc(1), UNIT)
    good, bad = HeapCell(units, UNIT, UNIT), HeapCell(Sigma("a", STAR, 1, STAR, 1), UNIT_TY, UNIT_TY)
    ill_typed = HeapCell(units, UNIT_TY, UNIT)
    # every cell audited once, in heaps other than the ones checked below
    for heap in (Heap((holder, good)), Heap((good, bad)), Heap((ill_typed,))):
        heap_wf(heap)
    # the last heap holds one cell twice, whose audit is kept for index 1
    for heap in (Heap((holder, bad)), Heap((good, ill_typed)), Heap((ill_typed, ill_typed))):
        report = heap_wf(heap)
        assert not report.ok
        assert report == heap_wf(_fresh_cells(heap))


# ---------------------------------------------------------------------------
# Conversion over heaps

def test_equiv_chases_locations():
    cell = HeapCell(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), UNIT, UNINIT)
    heap, l1 = Heap().alloc(cell)
    heap, l2 = heap.alloc(cell)
    assert l1 != l2
    assert equiv(Context(), Loc(l1), Loc(l2), heap)


def test_equiv_distinguishes_cell_contents():
    s = Sigma("x", UNIT_TY, 1, UNIT_TY, 0)
    heap = Heap((HeapCell(s, UNIT, UNINIT), HeapCell(Sigma("x", STAR, 1, UNIT_TY, 0), UNIT_TY, UNINIT)))
    assert not equiv(Context(), Loc(0), Loc(1), heap)


_HALF = Sigma("x", STAR, 1, UNIT_TY, 0)


@pytest.mark.parametrize("cells", [
    # a location whose cell does not exist, on either side
    (HeapCell(_HALF, UNIT_TY, UNINIT),),
    # one type, flags included, but only one of the first slots is filled
    (HeapCell(_HALF, UNIT_TY, UNINIT), HeapCell(_HALF, UNINIT, UNINIT)),
    # one type, both first slots readable, different values in them
    (HeapCell(_HALF, UNIT_TY, UNINIT), HeapCell(_HALF, Pi("a", UNIT_TY, UNIT_TY), UNINIT)),
])
def test_locations_differ_when_a_cell_is_missing_or_its_slots_differ(cells):
    heap = Heap(cells)
    assert not equiv(Context(), Loc(0), Loc(1), heap)
    assert not equiv(Context(), Loc(1), Loc(0), heap)


def test_normalize_runs_allocation_on_scratch():
    # normalizing a chain must not touch the real heap
    heap = Heap()
    n = normalize(Context(), tparse(f"(snd {CHAIN.strip()})"), heap)
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
    assert equiv(Context(), replay, loc, final.heap)
    other = Assign2(loc, UNIT_TY)
    assert not equiv(Context(), other, loc, final.heap)


def test_cell_comparison_renames_the_pair_binder_away_from_definitions():
    # the first cell's second component is its own first component, not
    # the let-bound x, so the two cells differ whatever x unfolds to
    heap = Heap((
        HeapCell(tparse("(Sigma (x Star 0) (x 0))"), UNINIT, UNINIT),
        HeapCell(tparse("(Sigma (x Star 0) (Unit 0))"), UNINIT, UNINIT),
    ))
    assert not equiv(Context(), Loc(0), Loc(1), heap)
    assert not equiv(Context().extend("x", STAR, UNIT_TY), Loc(0), Loc(1), heap)


def test_normalize_equiv_and_subtype_leave_the_callers_heap_alone():
    heap = tgt_eval(tparse(
        "(let (y (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0))) y)"
    )).heap
    before = heap.cells
    fill = tparse("(assign2 (assign1 y unit) unit)")
    ctx = Context().extend("y", Sigma("x", UNIT_TY, 0, UNIT_TY, 0), Loc(0))
    # the assignments go through on the scratch heap, so the second
    # projection of the filled cell normalizes to unit
    assert normalize(ctx, Snd(fill), heap) == UNIT
    assert equiv(ctx, Snd(fill), UNIT, heap)
    assert subtype(ctx, Snd(fill), UNIT, heap)
    assert tgt_subtype(heap, ctx, Snd(fill), UNIT)
    assert normalize(ctx, tparse(CHAIN), heap=heap) == Loc(1)
    assert equiv(Context(), tparse(CHAIN), tparse(CHAIN), heap=heap)
    assert subtype(Context(), Fst(tparse(CHAIN)), UNIT, heap=heap)
    assert heap.cells is before
    assert heap.cells == (HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 0), UNINIT, UNINIT),)


# ---------------------------------------------------------------------------
# The flag protocol, asked of every layer

STORED, OTHER = UNIT_TY, Pi("z", UNIT_TY, UNIT_TY)
REACHABLE = [(0, 0), (1, 0), (1, 1)]


def _one_cell(flags):
    """A heap of one tuple of two Star slots at flags, each filled slot
    holding STORED."""
    slots = [STORED if f else UNINIT for f in flags]
    return Heap((HeapCell(Sigma("x", STAR, flags[0], STAR, flags[1]), *slots),))


def _accepts(heap, e):
    """Whether typing, the machine and normalization each accept e."""
    try:
        tgt_infer(heap, Context(), e)
        typed = True
    except TypeCheckError:
        typed = False
    try:
        tgt_step(Config(heap, e))
        stepped = True
    except StuckError:
        stepped = False
    return typed, stepped, not alpha_eq(normalize(Context(), e, heap), e)


@pytest.mark.parametrize("flags", REACHABLE)
@pytest.mark.parametrize("i", [1, 2])
def test_typing_machine_and_normalization_agree_on_the_flag_protocol(flags, i):
    heap = _one_cell(flags)
    read = (Fst, Snd)[i - 1](Loc(0))
    typed, stepped, normalized = _accepts(heap, read)
    assert typed == stepped == normalized == (flags[i - 1] == 1)
    assign = (Assign1, Assign2)[i - 1]
    # of the reachable flags, slot 1 is writable at (0,0), slot 2 at (1,0)
    writable = flags == ((0, 0), (1, 0))[i - 1]
    assert _accepts(heap, assign(Loc(0), OTHER)) == (writable,) * 3
    # replaying the stored value into a filled slot is the one write that
    # normalization takes as the location itself
    typed, stepped, normalized = _accepts(heap, assign(Loc(0), STORED))
    assert typed == stepped == writable
    assert normalized == (writable or flags[i - 1] == 1)


def test_heap_transitions_are_unchanged_flags_or_one_permitted_write():
    legal = {
        ((0, 0), (0, 0)),
        ((0, 0), (1, 0)),
        ((1, 0), (1, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 1)),
    }
    for old in REACHABLE:
        for new in REACHABLE:
            ok = not _heap_transition_problems(_one_cell(old), _one_cell(new))
            assert ok == ((old, new) in legal), (old, new)
    assert _heap_transition_problems(_one_cell((0, 0)), Heap()) == ["heap shrank"]


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

def _types(leaves):
    return st.recursive(st.sampled_from(leaves), lambda inner: st.one_of(
        st.builds(Pi, _BINDERS, inner, inner),
        st.builds(Sigma, _BINDERS, inner, _FLAGS, inner, _FLAGS),
        st.builds(Let, _BINDERS, inner, inner, inner),
        st.builds(Let, _BINDERS, st.just(UNIT_TY), st.just(STAR), inner),
        st.builds(CodeTy, _BINDERS, inner, _BINDERS, inner, inner),
        st.builds(Fst, inner),
    ), max_leaves=8)


# types over the binders x, y and z: some are open, some ill-sorted, and
# the binders collide with the names the context below defines
_TYPES = _types((UNIT_TY, STAR, UNIT, Var("x"), Var("z")))


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


# ---------------------------------------------------------------------------
# Checking mode against synthesis (followed by subtyping)

_CORPUS = load_corpus(Path(__file__).resolve().parent.parent / "corpus")


def _raised(thunk):
    """The kind and message of the TypeCheckError thunk raises, else its result."""
    try:
        return thunk()
    except TypeCheckError as err:
        return err.kind, err.message


def _sigmas(e):
    out = [e] if isinstance(e, Sigma) else []
    for f in _CHILD_FIELDS[type(e)]:
        out += _sigmas(getattr(e, f))
    return out


def _flip(e, target, flag):
    """e with the given flag of the node target flipped."""
    if e is target:
        return replace(e, **{flag: 1 - getattr(e, flag)})
    kids = {f: _flip(getattr(e, f), target, flag) for f in _CHILD_FIELDS[type(e)]}
    return replace(e, **kids) if kids else e


def _aliased(ctx):
    """ctx with each pair or function type behind a definition, so that
    eliminating a variable of ctx has to unfold its type."""
    out = Context()
    for b in ctx:
        ty = b.ty
        if isinstance(ty, (Pi, Sigma)):
            out = out.extend(f"{b.name}_ty", STAR, ty)
            ty = Var(f"{b.name}_ty")
        out = out.extend(b.name, ty, b.defn)
    return out


@st.composite
def _cases(draw):
    """(ctx, term, its type): a corpus program or a generated one, open or
    closed, the open ones under aliased types or not."""
    if draw(st.booleans()):
        _, term = draw(st.sampled_from(_CORPUS))
        return Context(), term, src_infer(Context(), term)
    spec = GenSpec(depth=draw(st.integers(1, 4)), seed=draw(st.integers(0, 10_000)),
                   closed=draw(st.booleans()))
    ctx, term, ty = gen_typed(spec)
    return (_aliased(ctx) if draw(st.booleans()) else ctx), term, ty


_PLAIN_CTX = (
    Context().extend("a", UNIT_TY).extend("p", Sigma("w", UNIT_TY, 1, UNIT_TY, 1))
    .extend("f", Pi("w", UNIT_TY, UNIT_TY)).extend("t", Sigma("w", UNIT_TY, 0, UNIT_TY, 0))
    .extend("u", Sigma("w", UNIT_TY, 1, UNIT_TY, 0))
)


@pytest.mark.parametrize("lang, term, want", [
    (Lang.SOURCE, "(fst p)", "Unit"),
    (Lang.SOURCE, "(snd p)", "Unit"),
    (Lang.SOURCE, "(app f a)", "Unit"),
    (Lang.SOURCE, "(app f (fst p))", "Star"),
    (Lang.SOURCE, "(fst f)", "Unit"),
    (Lang.TARGET, "(assign1 t unit)", "(Sigma (w Unit 1) (Unit 0))"),
    (Lang.TARGET, "(assign2 u unit)", "(Sigma (w Unit 1) (Unit 1))"),
    (Lang.TARGET, "(assign2 t unit)", "(Sigma (w Unit 1) (Unit 1))"),
    (Lang.TARGET, "(snd u)", "Unit"),
])
def test_checking_mode_unfolds_an_aliased_type_as_synthesis_does(lang, term, want):
    e, ty = parse(term, lang), parse(want, lang)
    for ctx in (_PLAIN_CTX, _aliased(_PLAIN_CTX)):
        def synthesized():
            _ensure_subtype(Heap(), ctx, synthesize(lang, Heap(), ctx, e), ty, e.pos, "term")

        assert _raised(lambda: check(lang, Heap(), ctx, e, ty)) == _raised(synthesized)


@settings(max_examples=150, deadline=None)
@given(_cases(), _cases(), st.data())
def test_checking_mode_agrees_with_synthesis_then_subtyping(case, other, data):
    ctx, term, ty = case
    tctx, tterm, tty = translate_ctx(ctx), translate(ctx, term), translate(ctx, ty)
    heap = Heap()
    if not ctx.names() and data.draw(st.booleans()):
        # a machine state of the compiled program, with its heap
        states = tgt_steps(tterm)
        state = states[data.draw(st.integers(0, len(states) - 1))][0]
        heap, tterm = state.heap, state.expr
    wrong = other[2]
    tgt_expected = [tty, translate(other[0], wrong)]
    sigmas = _sigmas(tty)
    if sigmas:
        node = data.draw(st.sampled_from(sigmas))
        tgt_expected.append(_flip(tty, node, data.draw(st.sampled_from(("flag1", "flag2")))))
    runs = [(Lang.SOURCE, Heap(), ctx, term, [ty, wrong]),
            (Lang.TARGET, heap, tctx, tterm, tgt_expected)]
    for lang, h, c, e, expected in runs:
        for want in expected:
            def synthesized():
                _ensure_subtype(h, c, synthesize(lang, h, c, e), want, e.pos, "term")

            assert _raised(lambda: check(lang, h, c, e, want)) == _raised(synthesized)


# q's type is an alias of a pair of types, so eliminating q unfolds it
_ALIAS_CTX = (
    Context().extend("x", STAR, UNIT_TY).extend("y", UNIT_TY, UNIT).extend("z", STAR)
    .extend("Q", BOX, Sigma("a", STAR, 1, STAR, 1)).extend("q", Var("Q"))
)


@settings(max_examples=300, deadline=None)
@given(_types((UNIT_TY, STAR, UNIT, Var("x"), Var("z"), Var("q"), Fst(Var("q")), Snd(Var("q")))))
@example(Fst(Var("q")))
@example(Snd(Var("q")))
def test_a_universe_query_in_checking_mode_agrees_with_synthesis(ty):
    heap, ctx = tgt_eval(tparse(CHAIN)).heap, _ALIAS_CTX
    for lang in Lang:
        def synthesized():
            return _universe(_norm_ty(heap, ctx, synthesize(lang, heap, ctx, ty)), ty, "type")

        assert _raised(lambda: _infer_sort(lang, heap, ctx, ty, "type")) == _raised(synthesized)
