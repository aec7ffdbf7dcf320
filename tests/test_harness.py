"""Property harness: generators, checks, readback, reporting."""

from pathlib import Path

import pytest
from families import FAMILIES, type_tower
from hypothesis import given, settings
from hypothesis import strategies as st
from records import plug

from dtalloc import harness, machine
from dtalloc.alloc import translate
from dtalloc.conversion import equiv
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
    App, Assign1, Assign2, CTag, Code, CodeTy, Context, Fst, Let, Loc, Malloc, Pi, STAR, Sigma, UNIT,
    UNIT_TY, Univ, Universe, Var, subst,
)
from dtalloc.target import _MACHINE, heap_wf, tgt_eval

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


@pytest.mark.parametrize(
    "broken, caught",
    [
        (_let_substitutes_unit, "pair_nested"),
        (_assign1_writes_slot_2, "pair_nested"),
        (_fst_reads_slot_2, "let_fst"),
    ],
)
def test_local_step_check_agrees_with_whole_states_on_a_broken_machine(
    monkeypatch, broken, caught
):
    monkeypatch.setattr(machine, "contract", broken)
    monkeypatch.setattr(harness, "contract", broken)
    programs = load_corpus(CORPUS) + [("let_fst", parse(_LET_FST))]
    programs += [(f"{f}/{n}", parse(FAMILIES[f](n))) for f in sorted(FAMILIES) for n in (1, 2, 3)]
    verdicts = {}
    for name, e in programs:
        local, whole = _both_modes(name, e)
        assert local == whole, name
        verdicts[name] = local.verdict
    assert verdicts[caught] == "fail"


def _tgt(text):
    return parse(text, Lang.TARGET)


_FULL_UNITS = HeapCell(_tgt("(Sigma (a Unit 1) (Unit 1))"), UNIT, UNIT)
_FULL_TYPES = HeapCell(_tgt("(Sigma (a Star 1) (Star 1))"), UNIT_TY, UNIT_TY)
_EMPTY_UNITS = HeapCell(_tgt("(Sigma (a Unit 0) (Unit 0))"), UNINIT, UNINIT)
_EMPTY_TYPES = HeapCell(_tgt("(Sigma (a Star 0) (Star 0))"), UNINIT, UNINIT)
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
    ],
    ids=["hole-in-type", "cell-retyped", "type-changed", "let-annotation", "assigned-value",
         "let-definition", "first-slot", "heap-written", "argument-in-type", "cell-written"],
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
_SIGMA_10 = _tgt("(Sigma (a Unit 1) (Unit 0))")
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
