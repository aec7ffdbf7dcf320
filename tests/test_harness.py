"""Property harness: generators, checks, readback, reporting."""

from pathlib import Path

import pytest

from dtalloc import harness
from dtalloc.alloc import translate
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
from dtalloc.sexpr import parse
from dtalloc.source import src_equiv, src_eval, src_infer, src_step
from dtalloc.syntax import Context, Loc, Pi, STAR, Sigma, UNIT, UNIT_TY
from dtalloc.target import tgt_eval

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_generated_cases_really_type():
    for cid, ctx, e, claimed in gen_cases(count=30, depth=4, seed=5):
        inferred = src_infer(ctx, e)
        assert src_equiv(ctx, inferred, claimed), cid


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
    the expression of every state is the location of cell 0."""
    steps = [(Config(h, Loc(0)), "init" if k == 0 else "malloc") for k, h in enumerate(heaps)]
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
