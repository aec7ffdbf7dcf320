"""Property harness: generators, checks, readback, reporting."""

from pathlib import Path

import pytest
from families import DEPENDENT, FAMILIES, type_tower
from hypothesis import given, settings
from hypothesis import strategies as st
from records import plug

from dtalloc import harness, machine
from dtalloc.alloc import translate
from dtalloc.conversion import equiv, subtype
from dtalloc.harness import (
    DEFAULT_FUEL,
    GenSpec,
    Report,
    check_differential,
    check_preservation,
    check_reduction_preserved,
    check_step_preservation,
    check_subst_commute,
    gen_cases,
    gen_lemma4,
    gen_typed,
    load_corpus,
    readback,
    source_step_pairs,
    summary_line,
    verdict_counts,
)
from dtalloc.errors import FuelExhausted, StuckError
from dtalloc.heap import Config, Heap, HeapCell, UNINIT
from dtalloc.sexpr import Lang, parse
from dtalloc.source import src_eval, src_infer, src_step
from dtalloc.syntax import (
    App, Assign1, Assign2, CTag, Code, CodeTy, Context, Fst, Let, Loc, Malloc, Pi, STAR, Sigma, Snd,
    UNIT, UNIT_TY, Univ, Universe, Var, subst,
)
from dtalloc.target import _MACHINE, heap_wf, tgt_eval, tgt_infer

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_generated_cases_really_type():
    for cid, ctx, e, claimed in gen_cases(count=30, depth=4, seed=5):
        inferred = src_infer(ctx, e)
        assert equiv(ctx, inferred, claimed), cid


def test_generation_is_deterministic():
    a = gen_cases(count=20, depth=4, seed=11)
    b = gen_cases(count=20, depth=4, seed=11)
    assert [(cid, e) for cid, _, e, _ in a] == [(cid, e) for cid, _, e, _ in b]


def test_generation_varies_with_seed():
    a = [e for _, _, e, _ in gen_cases(count=20, depth=4, seed=1)]
    b = [e for _, _, e, _ in gen_cases(count=20, depth=4, seed=2)]
    assert a != b


def test_closed_spec_generates_closed_terms():
    from dtalloc.syntax import free_vars

    for i in range(20):
        ctx, e, _ = gen_typed(GenSpec(depth=3, seed=100 + i, closed=True))
        assert len(ctx) == 0
        assert free_vars(e) == set()


def test_lemma4_scenarios_are_well_formed():
    for i in range(10):
        ctx, x, a_ty, e, e2 = gen_lemma4(GenSpec(depth=3, seed=i))
        src_infer(ctx.extend(x, a_ty), e)


def test_report_line_and_json():
    r = Report("c1", "type-preservation", "pass")
    assert r.line() == "CASE c1 type-preservation pass"
    assert (
        r.to_json()
        == '{"case": "c1", "detail": "", "prop": "type-preservation", "verdict": "pass"}'
    )
    assert summary_line([r, Report("c2", "p", "fail", "boom")]) == "passed=1 failed=1 fuel=0"


def test_verdict_counts_keep_their_order():
    reports = [Report(f"c{i}", "p", v) for i, v in enumerate(["fuel", "pass", "fuel", "fail"])]
    counts = verdict_counts(reports)
    assert list(counts.items()) == [("passed", 1), ("failed", 1), ("fuel", 2)]
    assert summary_line(reports) == "passed=1 failed=1 fuel=2"
    assert verdict_counts([]) == {"passed": 0, "failed": 0, "fuel": 0}


def test_readback_observations():
    assert readback(Config(Heap(), UNIT)) == "unit"
    src_pair = src_eval(parse("(pair unit unit (Sigma (x Unit) Unit))"))
    assert readback(Config(Heap(), src_pair)) == "(pair unit unit)"
    final = tgt_eval(translate(Context(), parse("(pair unit unit (Sigma (x Unit) Unit))")))
    assert readback(final) == "(pair unit unit)"
    clo = src_eval(parse("(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit))"))
    assert readback(Config(Heap(), clo)) == "<closure>"
    assert readback(Config(Heap(), parse("Unit"))) == "<type>"


def test_readback_nested_pairs_chase_locations():
    text = "(pair (pair unit unit (Sigma (a Unit) Unit)) unit (Sigma (p (Sigma (a Unit) Unit)) Unit))"
    final = tgt_eval(translate(Context(), parse(text)))
    assert readback(final) == "(pair (pair unit unit) unit)"


def test_corpus_loads_and_is_large_enough():
    corpus = load_corpus(CORPUS)
    assert len(corpus) >= 30
    names = [n for n, _ in corpus]
    assert names == sorted(names)


def test_corpus_step_pair_budget():
    total = sum(len(source_step_pairs(e)) for _, e in load_corpus(CORPUS))
    assert total >= 50


def test_step_pairs_of_known_program():
    e = parse((CORPUS / "eval_chain.src").read_text())
    pairs = source_step_pairs(e)
    assert len(pairs) == 5
    for a, b in pairs:
        assert a != b


def _stepped_pairs(e, fuel):
    """The pairs as a loop of src_step calls from the root finds them: fuel
    counts the steps and the check for a value after them alike."""
    pairs, cur = [], e
    for _ in range(fuel):
        r = src_step(cur)
        if r is None:
            return pairs
        pairs.append((cur, r[0]))
        cur = r[0]
    raise FuelExhausted(fuel)


def _outcome(f, *args):
    try:
        return f(*args)
    except (FuelExhausted, StuckError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("fuel", [0, 1, 2, 3, 5, 8, 9, DEFAULT_FUEL])
def test_step_pairs_match_a_loop_of_single_steps_at_every_budget(fuel):
    terms = [e for _, e in load_corpus(CORPUS)]
    terms += [parse("(let (p unit Unit) (fst p))"), parse("(snd (pair unit (fst unit) (Sigma (a Unit) Unit)))")]
    for e in terms:
        assert _outcome(source_step_pairs, e, fuel) == _outcome(_stepped_pairs, e, fuel)


def test_checks_pass_on_simple_case():
    e = parse("(fst (pair unit unit (Sigma (x Unit) Unit)))")
    assert check_preservation("t", Context(), e).verdict == "pass"
    assert check_differential("t", e).verdict == "pass"
    assert check_step_preservation("t", e).verdict == "pass"
    (a, b), = source_step_pairs(e)
    assert check_reduction_preserved("t", a, b).verdict == "pass"


def test_subst_commute_check():
    ctx, x, a_ty, e, e2 = gen_lemma4(GenSpec(depth=3, seed=3))
    assert check_subst_commute("t", ctx, x, a_ty, e, e2).verdict == "pass"


def test_fuel_shows_up_as_fuel_verdict():
    e = parse((CORPUS / "eval_chain.src").read_text())
    r = check_differential("t", e, fuel=1)
    assert r.verdict == "fuel"


def test_check_catches_failures_not_crashes():
    # an ill-typed input yields a fail verdict with a detail message
    bad = parse("x")
    r = check_preservation("t", Context(), bad)
    assert r.verdict == "fail"
    assert r.detail


# A cell holding a type in its first slot, and a fresh empty cell.
_TYPE_CELL = HeapCell(Sigma("x", STAR, 1, STAR, 0), UNIT_TY, UNINIT)
_EMPTY_CELL = HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 0), UNINIT, UNINIT)


def _check_machine_run(monkeypatch, *heaps):
    """check_step_preservation over a run whose states hold these heaps;
    the expression of every state is the location of cell 0, and every
    state after the first records a malloc at the top of the term as its
    step."""
    malloc = ([], Malloc("x", UNIT_TY, UNIT_TY), Loc(0))
    steps = [(Config(h, Loc(0), None if k == 0 else malloc), "init" if k == 0 else "malloc")
             for k, h in enumerate(heaps)]
    monkeypatch.setattr(harness, "tgt_steps", lambda te, fuel: steps)
    return check_step_preservation("t", parse("unit"))


def test_step_preservation_audits_only_heaps_a_step_replaced(monkeypatch):
    audited = []
    audit = harness.heap_wf

    def counted(heap):
        audited.append(heap)
        return audit(heap)

    monkeypatch.setattr(harness, "heap_wf", counted)
    start = Heap((_TYPE_CELL,))
    grown = Heap((_TYPE_CELL, _EMPTY_CELL))
    assert _check_machine_run(monkeypatch, start, start, grown, grown).verdict == "pass"
    assert audited == [start, grown]


@pytest.mark.parametrize(
    "cells, problem",
    [
        (
            (_TYPE_CELL, HeapCell(Sigma("x", UNIT_TY, 0, UNIT_TY, 1), UNINIT, UNIT)),
            "cell 1: second slot filled before the first",
        ),
        (
            (HeapCell(_TYPE_CELL.cell_type, Pi("a", UNIT_TY, UNIT_TY), UNINIT), _EMPTY_CELL),
            "cell 0: slot 1 was rewritten",
        ),
    ],
)
def test_step_preservation_fails_on_a_bad_allocating_step(monkeypatch, cells, problem):
    start = Heap((_TYPE_CELL,))
    r = _check_machine_run(monkeypatch, start, start, Heap(cells))
    assert r.verdict == "fail"
    assert problem in r.detail


def test_step_preservation_reports_a_slot_audit_out_of_fuel_as_fuel(monkeypatch):
    # the slot holds code whose argument type is the cell's, spelled so
    # that comparing the two runs past the default fuel
    a1, a2 = type_tower(16, "T16"), type_tower(16, "(Sigma (a T15) T15)")
    code_ty = parse(f"(Code ((m Unit) (x {a1})) Unit)", Lang.TARGET)
    code = parse(f"(code ((m Unit) (x {a2})) unit)", Lang.TARGET)
    heap = Heap((HeapCell(Sigma("s", code_ty, 1, UNIT_TY, 0), code, UNINIT),))
    with pytest.raises(FuelExhausted):
        heap_wf(heap)
    r = _check_machine_run(monkeypatch, heap, heap)
    assert (r.verdict, r.detail) == ("fuel", f"exceeded {DEFAULT_FUEL} reduction steps")


def _both_modes(case_id, e):
    """The step-preservation reports of the local check and of typing
    every whole state."""
    return check_step_preservation(case_id, e), check_step_preservation(case_id, e, local=False)


def test_local_step_check_agrees_with_whole_states_on_the_corpus():
    for name, e in load_corpus(CORPUS):
        local, whole = _both_modes(name, e)
        assert local == whole == Report(name, "step-preservation", "pass")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_local_step_check_agrees_with_whole_states_on_the_families(family):
    for n in range(1, 9):
        local, whole = _both_modes(f"{family}/{n}", parse(FAMILIES[family](n)))
        assert local == whole and local.verdict == "pass", n


@pytest.mark.parametrize("program", sorted(DEPENDENT))
def test_local_step_check_agrees_with_whole_states_on_dependent_programs(program):
    for n in range(1, 9):
        local, whole = _both_modes(f"{program}/{n}", parse(DEPENDENT[program](n)))
        assert local == whole and local.verdict == "pass", n


def dependent_steps(case_id, e):
    """The local check's report on e, and (prev, prev_ty, cfg, ty) for each
    step whose previous type holds a location or the redex; ty is the type
    the check carried to cfg, or None where it typed the whole state."""
    seen = []
    keeps = harness._step_keeps_type

    def recorded(prev, prev_ty, cfg):
        ty = keeps(prev, prev_ty, cfg)
        if harness._mentions_heap_or(prev_ty, cfg.step[1]):
            seen.append((prev, prev_ty, cfg, ty))
        return ty

    harness._step_keeps_type = recorded
    try:
        return check_step_preservation(case_id, e), seen
    finally:
        harness._step_keeps_type = keeps


def _kept_dependent_steps():
    """The steps of dependent_steps that the local check kept, over the
    corpus and the dependent programs at sizes 1-8."""
    programs = load_corpus(CORPUS)
    programs += [(f"{f}/{n}", parse(DEPENDENT[f](n))) for f in sorted(DEPENDENT) for n in range(1, 9)]
    kept = []
    for name, e in programs:
        report, seen = dependent_steps(name, e)
        assert report.verdict == "pass", name
        kept += [step for step in seen if step[3] is not None]
    return kept


def test_a_carried_type_and_the_whole_state_type_are_subtypes_of_each_other():
    kept = _kept_dependent_steps()
    assert len(kept) > 27  # the corpus alone keeps 27
    for _, _, cfg, ty in kept:
        whole = tgt_infer(cfg.heap, Context(), cfg.expr)
        assert subtype(Context(), ty, whole, cfg.heap) and subtype(Context(), whole, ty, cfg.heap)


def test_a_carried_type_holds_the_new_state_in_place_of_the_old():
    moved = 0
    for _, prev_ty, cfg, ty in _kept_dependent_steps():
        frames, redex, _ = cfg.step
        old = [node for node, _, _ in frames] + [redex]
        new = [cfg.expr]
        for _, hole, _ in frames:
            new.append(getattr(new[-1], hole))
        before, after = harness._object_ids(prev_ty), harness._object_ids(ty)
        # each frame node and the redex the previous type held is now the
        # node of the new state in its place, so the next step's identity
        # test sees objects of the state it is taken from
        assert not any(id(n) in after for n in old)
        assert [id(n) in before for n in old] == [id(n) in after for n in new]
        moved += id(redex) in before
    assert moved > 0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_local_step_check_agrees_with_whole_states_on_generated_programs(seed):
    _, e, _ = gen_typed(GenSpec(depth=4, seed=seed, closed=True))
    local, whole = _both_modes(f"gen{seed}", e)
    assert local == whole


# Broken contraction rules, applied to the machines and to the rules the
# local check compares a step with; conversion keeps its own binding of
# machine.contract, so the checker still judges by the right rules.
_contract = machine.contract


def _let_substitutes_unit(heap, e):
    if type(e) is Let:
        return heap, subst(e.body, UNIT, e.binder), "let"
    return _contract(heap, e)


def _assign1_writes_slot_2(heap, e):
    if type(e) is Assign1 and type(e.tuple_) is Loc:
        i = e.tuple_.loc_id
        return heap.with_cell(i, heap.cell(i).write(2, e.value)), e.tuple_, "assign1"
    return _contract(heap, e)


def _fst_reads_slot_2(heap, e):
    if type(e) is Fst and type(e.expr) is Loc:
        v = heap.cell(e.expr.loc_id).read(2)
        if v is not None:
            return heap, v, "fst-loc"
    return _contract(heap, e)


# a projection bound by a let whose body does not use it, so that a wrong
# projection stops no machine
_LET_FST = (
    "(let (p (pair (pair unit unit (Sigma (b Unit) Unit)) unit (Sigma (a (Sigma (b Unit) Unit)) Unit))"
    " (Sigma (a (Sigma (b Unit) Unit)) Unit))"
    " (let (x (fst p) (Sigma (b Unit) Unit)) unit))"
)


_BROKEN = [
    (_let_substitutes_unit, "pair_nested"),
    (_assign1_writes_slot_2, "pair_nested"),
    (_fst_reads_slot_2, "let_fst"),
]


def _broken_machine_verdicts():
    """The verdicts of both modes on the programs a broken rule runs,
    asserting that the two modes give equal reports."""
    programs = load_corpus(CORPUS) + [("let_fst", parse(_LET_FST))]
    programs += [(f"{f}/{n}", parse(FAMILIES[f](n))) for f in sorted(FAMILIES) for n in (1, 2, 3)]
    programs += [(f"{f}/{n}", parse(DEPENDENT[f](n))) for f in sorted(DEPENDENT) for n in (1, 2, 3)]
    verdicts = {}
    for name, e in programs:
        local, whole = _both_modes(name, e)
        assert local == whole, name
        verdicts[name] = local.verdict
    return verdicts


@pytest.mark.parametrize("broken, caught", _BROKEN)
def test_local_step_check_agrees_with_whole_states_on_a_broken_machine(
    monkeypatch, broken, caught
):
    monkeypatch.setattr(machine, "contract", broken)
    monkeypatch.setattr(harness, "contract", broken)
    assert _broken_machine_verdicts()[caught] == "fail"


@pytest.mark.parametrize("broken, caught", _BROKEN)
@pytest.mark.parametrize("module", [machine, harness], ids=["machine", "harness"])
def test_local_step_check_agrees_with_whole_states_when_one_binding_is_broken(
    monkeypatch, module, broken, caught
):
    # the traced run keeps the result of its own binding on each redex; the
    # local check reads it only when its binding is that very function, so
    # a broken machine is judged by the right rules, and a broken check
    # types the whole states of a right run
    monkeypatch.setattr(module, "contract", broken)
    verdicts = _broken_machine_verdicts()
    if module is machine:
        assert verdicts[caught] == "fail"
    else:
        assert set(verdicts.values()) == {"pass"}


def _tgt(text):
    return parse(text, Lang.TARGET)


_FULL_UNITS = HeapCell(_tgt("(Sigma (a Unit 1) (Unit 1))"), UNIT, UNIT)
_FULL_TYPES = HeapCell(_tgt("(Sigma (a Star 1) (Star 1))"), UNIT_TY, UNIT_TY)
_EMPTY_UNITS = HeapCell(_tgt("(Sigma (a Unit 0) (Unit 0))"), UNINIT, UNINIT)
_EMPTY_TYPES = HeapCell(_tgt("(Sigma (a Star 0) (Star 0))"), UNINIT, UNINIT)
_SIGMA_10 = _tgt("(Sigma (a Unit 1) (Unit 0))")
# a tuple whose second slot takes the type in its first, and two of them
_NAMES_ITS_SLOT = _tgt("(Sigma (a Star 1) (a 0))")
_TAKES_UNIT = HeapCell(_NAMES_ITS_SLOT, UNIT_TY, UNINIT)
_TAKES_FUNCTIONS = HeapCell(_NAMES_ITS_SLOT, _tgt("(Pi (x Unit) Unit)"), UNINIT)
_EMPTY_TYPE_SLOT = HeapCell(_tgt("(Sigma (a Star 0) (a 0))"), UNINIT, UNINIT)
# identity functions (tagged tuples of code and environment) on such tuples
# and on unit
_IDENTITY = HeapCell(
    Sigma("c", CodeTy("n", UNIT_TY, "x", _NAMES_ITS_SLOT, _NAMES_ITS_SLOT), 1, UNIT_TY, 1),
    Code("n", UNIT_TY, "x", _NAMES_ITS_SLOT, Var("x")),
    UNIT,
)
_UNIT_IDENTITY = HeapCell(
    Sigma("c", _tgt("(Code ((n Unit) (x Unit)) Unit)"), 1, UNIT_TY, 1),
    _tgt("(code ((n Unit) (x Unit)) x)"),
    UNIT,
)
# a function from a type to an empty tuple whose first slot takes that type
_ALLOCATING = HeapCell(
    Sigma("c", _tgt("(Code ((n Unit) (x Star)) (Sigma (a x 0) (Unit 0)))"), 1, UNIT_TY, 1),
    _tgt("(code ((n Unit) (x Star)) (malloc (a x) Unit))"),
    UNIT,
)


# two assignments through one location, an aliasing the target checker
# accepts, and what the machine's own first assignment leaves
_ALIASED = Let("y1", Assign1(Loc(0), UNIT), _SIGMA_10,
               Let("y2", Assign1(Loc(0), UNIT), _SIGMA_10, Var("y2")))
_ALIASED_HEAP, _ALIASED_LOC, _ = machine.contract(Heap((_EMPTY_UNITS,)), _ALIASED.bound)


def test_a_step_that_rewrites_the_parts_of_a_cell_type_is_a_heap_problem():
    before = Heap((_EMPTY_UNITS,))
    # the machine's own write of the first slot
    assert harness._heap_transition_problems(before, _ALIASED_HEAP) == []
    # flags that one write may set, over a first component that was Unit
    rewritten = Heap((HeapCell(_tgt("(Sigma (a Star 1) (Unit 0))"), UNIT, UNINIT),))
    assert harness._heap_transition_problems(before, rewritten) == [
        "cell 0: the parts of its pair type were rewritten"]


def _let_reading_slot(bound):
    """A let of bound, a tuple, whose body checks unit against its first slot."""
    return Let("y", bound, _NAMES_ITS_SLOT, Let("u", UNIT, Fst(_tgt("y")), UNIT))


# Wrong steps, each given by a state, its heap, what the step puts in place
# of the redex and the heap after it, when the step replaced it. A local
# check without one of its conditions lets each of them pass: the contractum
# checks where that check looks, but the state after the step does not
# type below the state before it.
@pytest.mark.parametrize(
    "heap, e, contractum, heap_after",
    [
        # the let body's type is the let-bound redex itself
        (Heap(), _tgt("(let (t (let (z Unit Star) z) Star) (let (u unit t) u))"),
         _tgt("(Pi (x Unit) Unit)"), None),
        # the let body's type is that of a cell the step retyped
        (Heap((_EMPTY_UNITS,)), Let("y", _tgt("(let (z unit Unit) z)"), UNIT_TY, Loc(0)),
         UNIT, Heap((_EMPTY_TYPES,))),
        # no frame checks the contractum, and its type is not the redex's
        (Heap((_FULL_UNITS, _FULL_TYPES)), Fst(Let("z", Loc(0), _FULL_UNITS.cell_type, _tgt("z"))),
         Loc(1), None),
        # the contractum is not below the let annotation
        (Heap(), _tgt("(let (t (let (z Unit Star) z) Star) unit)"), UNIT, None),
        # the contractum does not type at the slot it is assigned to
        (Heap((_EMPTY_UNITS,)), Assign1(Loc(0), _tgt("(let (z unit Unit) z)")), UNIT_TY, None),
        # the let body checks a term against the let-bound type
        (Heap(), _tgt("(let (t (let (z Unit Star) z) Star) (let (u unit t) unit))"),
         _tgt("(Pi (x Unit) Unit)"), None),
        # the second slot's type is the first slot of the tuple that the
        # identity function returns
        (Heap((_TAKES_UNIT, _TAKES_FUNCTIONS, _IDENTITY)),
         Assign2(App(CTag(Loc(2)), Let("w", Loc(0), _NAMES_ITS_SLOT, _tgt("w"))), UNIT),
         Loc(1), None),
        # the step writes another type than the assignment's to the slot the
        # let body reads
        (Heap((_EMPTY_TYPE_SLOT,)),
         _let_reading_slot(Assign1(Loc(0), UNIT_TY)),
         Loc(0), Heap((HeapCell(_NAMES_ITS_SLOT, _tgt("(Pi (x Unit) Unit)"), UNINIT),))),
        # the application's type is a tuple type over its argument, a type
        (Heap((_ALLOCATING,)), App(CTag(Loc(0)), _tgt("(let (w Unit Star) w)")),
         _tgt("(Pi (x Unit) Unit)"), None),
        # the step fills the slot that the assignment around it is to fill
        (Heap((_EMPTY_UNITS, _UNIT_IDENTITY)),
         Assign1(Loc(0), App(CTag(Loc(1)), _tgt("(let (w unit Unit) w)"))),
         UNIT, Heap((HeapCell(_tgt("(Sigma (a Unit 1) (Unit 0))"), UNIT, UNINIT), _UNIT_IDENTITY))),
        # the machine's first assignment writes the cell that the let body
        # assigns again
        (Heap((_EMPTY_UNITS,)), _ALIASED, _ALIASED_LOC, _ALIASED_HEAP),
    ],
    ids=["hole-in-type", "cell-retyped", "type-changed", "let-annotation", "assigned-value",
         "let-definition", "first-slot", "heap-written", "argument-in-type", "cell-written",
         "aliased-write"],
)
def test_local_step_check_types_the_whole_state_after_a_wrong_step(
    monkeypatch, heap, e, contractum, heap_after
):
    frames = []
    redex, _ = _MACHINE._refocus(e, frames)
    after = Config(heap if heap_after is None else heap_after, plug(frames, contractum),
                   (frames, redex, contractum))
    steps = [(Config(heap, e), "init"), (after, "let")]
    monkeypatch.setattr(harness, "tgt_steps", lambda te, fuel: steps)
    local, whole = _both_modes("t", parse("unit"))
    assert local == whole and local.verdict == "fail"


# a full tuple whose second slot takes the type in its first, two of them
# with different first slots, and a pair of units the second one holds
_DEPENDS = _tgt("(Sigma (a Star 1) (a 1))")
_UNIT_PAIR = HeapCell(_tgt("(Sigma (a Unit 1) (Unit 1))"), UNIT, UNIT)
_DEPENDENT_HEAP = Heap((HeapCell(_DEPENDS, UNIT_TY, UNIT),
                        HeapCell(_DEPENDS, _UNIT_PAIR.cell_type, Loc(2)), _UNIT_PAIR))
# the second slot of a let-bound tuple: its type, the first slot, holds the
# let whose bound is the redex
_SND_OF_LET = Snd(Let("w", Let("z", Loc(0), _DEPENDS, _tgt("z")), _DEPENDS, _tgt("w")))


# Steps on states whose type holds the redex, each given by the state, its
# heap, the recorded contractum and the verdict of typing whole states. A
# wrong contractum checks at the let annotation, or is not the
# contraction, so a dependent rule without one of its conditions would
# carry the type on.
@pytest.mark.parametrize(
    "heap, e, contractum, verdict",
    [
        (_DEPENDENT_HEAP, _SND_OF_LET, Loc(0), "pass"),
        # another tuple of the same type, whose first slot is another type
        (_DEPENDENT_HEAP, _SND_OF_LET, Loc(1), "fail"),
        # not a tuple of the annotation's type
        (_DEPENDENT_HEAP, _SND_OF_LET, UNIT, "fail"),
        # the application's codomain is a tuple type over its argument
        (Heap((_ALLOCATING,)), App(CTag(Loc(0)), _tgt("(let (w Unit Star) w)")), UNIT_TY, "pass"),
        (Heap((_ALLOCATING,)), App(CTag(Loc(0)), _tgt("(let (w Unit Star) w)")),
         _tgt("(Sigma (a Unit 1) (Unit 1))"), "fail"),
        (Heap((_ALLOCATING,)), App(CTag(Loc(0)), _tgt("(let (w Unit Star) w)")), UNIT, "fail"),
    ],
    ids=["snd-contracted", "snd-other-tuple", "snd-ill-typed",
         "codomain-contracted", "codomain-other-type", "codomain-ill-typed"],
)
def test_local_step_check_judges_a_dependent_step_as_whole_states_do(
    monkeypatch, heap, e, contractum, verdict
):
    frames = []
    redex, _ = _MACHINE._refocus(e, frames)
    assert harness._mentions_heap_or(tgt_infer(heap, Context(), e), redex)
    after = Config(heap, plug(frames, contractum), (frames, redex, contractum))
    steps = [(Config(heap, e), "init"), (after, "let")]
    monkeypatch.setattr(harness, "tgt_steps", lambda te, fuel: steps)
    local, whole = _both_modes("t", parse("unit"))
    assert local == whole and local.verdict == verdict


def test_a_type_that_holds_a_location_past_its_heap_is_not_carried():
    # a kept let step under a let frame, with a previous type that holds a
    # location; past the cells of the heap it was synthesized at, a
    # location came from normalizing on a scratch heap
    heap = Heap((_UNIT_PAIR,))
    e = _tgt("(let (v (let (z unit Unit) z) Unit) v)")
    frames = []
    redex, _ = _MACHINE._refocus(e, frames)
    after = Config(heap, plug(frames, UNIT), (frames, redex, UNIT))
    for loc, carried in ((0, True), (1, False)):
        ty = Sigma("a", UNIT_TY, 1, App(CTag(Loc(loc)), Var("a")), 1)
        kept = harness._step_keeps_type(Config(heap, e), ty, after)
        assert kept is (ty if carried else None), loc


def _exposed(bound=None, annot=None, body=None):
    """The state after a let step on let x = v : A in (let x' = e : A' in b),
    as a function of the redex: let x' = e[v/x] : A' in b, with A' and b
    the very objects of the redex, unless a part is given; a part given as
    text is parsed afresh."""

    def part(given, old):
        return old if given is None else _tgt(given) if isinstance(given, str) else given

    def after(redex):
        inner = redex.body
        e = subst(inner.bound, redex.bound, redex.binder)
        return Let(inner.binder, part(bound, e), part(annot, inner.annot), part(body, inner.body))

    return after


def _let_rule(redex):
    return machine.contract(Heap(), redex)[1]


_SIGMA_00 = _EMPTY_UNITS.cell_type
# a let of a location whose body is a let that fills its first slot
_FILLS_X = Let("x", Loc(0), _SIGMA_00, Let("y", Assign1(_tgt("x"), UNIT), _SIGMA_10, _tgt("y")))


# Steps on a let whose body is a let, each given by the state, its heap,
# the state after the step as a function of the redex, the heap after it
# when the step replaced it, and the verdict of typing whole states. Each
# wrong step that fails keeps the exposed bound checking against the
# exposed annotation, so it passes a check of the exposed let that drops
# one of its conditions.
@pytest.mark.parametrize(
    "heap, e, step, heap_after, verdict",
    [
        (Heap(), _tgt("(let (x unit Unit) (let (y Unit Star) y))"), _exposed(annot=Univ(Universe.BOX)),
         None, "fail"),
        (Heap(), _tgt("(let (x unit Unit) (let (y Unit Star) y))"), _exposed(annot="Star"),
         None, "pass"),
        (Heap(), _tgt("(let (p (let (x unit Unit) (let (y Unit Star) y)) Star) p)"),
         _exposed(annot=Univ(Universe.BOX)), None, "fail"),
        (Heap(), _tgt("(let (x unit Unit) (let (y unit Unit) y))"), _exposed(body="Unit"),
         None, "fail"),
        (Heap(), _tgt("(let (x unit Unit) (let (y unit Unit) y))"), _exposed(body="y"),
         None, "pass"),
        (Heap(), _tgt("(let (x unit Unit) (let (y unit Unit) x))"), _exposed(), None, "fail"),
        (Heap(), _tgt("(let (x unit Unit) (let (y unit Unit) x))"), _let_rule, None, "pass"),
        (Heap(), _tgt("(let (x Unit Star) (let (y unit (let (z x Star) Unit)) y))"), _exposed(),
         None, "fail"),
        (Heap(), _tgt("(let (x Unit Star) (let (y unit (let (z x Star) Unit)) y))"), _let_rule,
         None, "pass"),
        (Heap(), _tgt("(let (x Unit Star) (let (y x Star) (let (u unit y) u)))"),
         _exposed(bound="(Pi (z Unit) Unit)"), None, "fail"),
        (Heap(), _tgt("(let (x Unit Star) (let (y x Star) (let (u unit y) u)))"),
         _exposed(bound="(let (w Unit Star) w)"), None, "pass"),
        (Heap((_EMPTY_UNITS,)), _FILLS_X, _exposed(),
         Heap((HeapCell(_SIGMA_10, UNIT, UNINIT),)), "fail"),
        (Heap((_EMPTY_UNITS,)), _FILLS_X, _exposed(), None, "pass"),
    ],
    ids=["annotation-retyped", "annotation-copied", "annotation-retyped-in-a-frame", "body-retyped", "body-copied",
         "binder-in-body", "binder-in-body-substituted", "binder-in-annotation",
         "binder-in-annotation-substituted", "bound-not-substituted", "bound-converts",
         "bound-unchecked-after-write", "bound-checked"],
)
def test_local_step_check_judges_an_exposed_let_as_whole_states_do(
    monkeypatch, heap, e, step, heap_after, verdict
):
    frames = []
    redex, _ = _MACHINE._refocus(e, frames)
    contractum = step(redex)
    after = Config(heap if heap_after is None else heap_after, plug(frames, contractum),
                   (frames, redex, contractum))
    steps = [(Config(heap, e), "init"), (after, "let")]
    monkeypatch.setattr(harness, "tgt_steps", lambda te, fuel: steps)
    local, whole = _both_modes("t", parse("unit"))
    assert local == whole and local.verdict == verdict


def _let_substitutes_into_an_inner_bound_only(heap, e):
    if type(e) is Let and type(e.body) is Let:
        inner = e.body
        bound = subst(inner.bound, e.bound, e.binder)
        return heap, Let(inner.binder, bound, inner.annot, inner.body), "let"
    return _contract(heap, e)


def test_a_contraction_kept_by_another_binding_is_made_again(monkeypatch):
    # the broken rule leaves x in the body, unsubstituted, and the traced
    # run keeps that result on the redex
    monkeypatch.setattr(machine, "contract", _let_substitutes_into_an_inner_bound_only)
    e = _tgt("(let (x unit Unit) (let (y unit Unit) x))")
    start = Config(Heap(), e)
    heap, t, _, frames, redex, c = next(_MACHINE.steps(start.heap, e, 1))
    after = Config(heap, t, (frames, redex, c))
    ty = tgt_infer(Heap(), Context(), e)
    # the check's own binding, the rules, makes another contractum
    assert harness._step_keeps_type(start, ty, after) is None
    # the same broken binding reads the kept result, and keeps the type as
    # it keeps it whenever both bindings are broken alike
    monkeypatch.setattr(harness, "contract", machine.contract)
    assert harness._step_keeps_type(start, ty, after) is ty


def test_a_contraction_kept_on_a_redex_is_read_against_its_own_heap_only():
    units, types = Heap((_FULL_UNITS,)), Heap((_FULL_TYPES,))
    redex = Fst(Loc(0))
    [(_, read, *_)] = _MACHINE.steps(units, redex, 1)
    assert read == UNIT and harness._contracts_to(units, redex, units, UNIT)
    # against another heap the rules run again, and read Unit there
    assert not harness._contracts_to(types, redex, units, UNIT)
    assert harness._contracts_to(types, redex, types, UNIT_TY)


# a function from a type to that type
_STAR_IDENTITY = HeapCell(
    Sigma("c", _tgt("(Code ((n Unit) (x Star)) Star)"), 1, UNIT_TY, 1),
    _tgt("(code ((n Unit) (x Star)) x)"),
    UNIT,
)


def test_a_step_that_is_not_the_contraction_is_not_kept_at_an_argument():
    # the application's type holds nothing of the redex, and the wrong
    # contractum checks at the argument's type
    heap = Heap((_STAR_IDENTITY,))
    e = App(CTag(Loc(0)), _tgt("(let (w Unit Star) w)"))
    frames = []
    redex, _ = _MACHINE._refocus(e, frames)
    contractum = _tgt("(Pi (x Unit) Unit)")
    after = Config(heap, plug(frames, contractum), (frames, redex, contractum))
    ty = tgt_infer(heap, Context(), e)
    assert ty == STAR and harness._step_keeps_type(Config(heap, e), ty, after) is None
