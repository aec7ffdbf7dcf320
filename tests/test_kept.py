"""Judgements kept on the node: a closed term's compiled form, source and
target types and final states are made once per node, and reused by every
check that asks for them again."""

from pathlib import Path

import pytest

from dtalloc import alloc
from dtalloc.alloc import translate
from dtalloc.conversion import DEFAULT_FUEL
from dtalloc.errors import FuelExhausted, StuckError, TypeCheckError
from dtalloc.harness import (
    check_differential,
    check_preservation,
    check_reduction_preserved,
    check_sort_preservation,
    check_step_preservation,
    check_subst_commute,
    source_step_pairs,
)
from dtalloc.heap import Heap
from dtalloc.sexpr import Lang, ParseError, parse, print_expr
from dtalloc.source import src_eval, src_infer
from dtalloc.syntax import UNIT, UNIT_TY, Context
from dtalloc.target import tgt_eval, tgt_infer

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# every source file of the corpus, the negative ones that parse included
_SOURCE_FILES = sorted(CORPUS.glob("*.src")) + sorted((CORPUS / "negative").glob("*.src"))


def _parses(path):
    try:
        parse(path.read_text())
    except ParseError:
        return False
    return True


_PARSED_FILES = [p for p in _SOURCE_FILES if _parses(p)]


def _raised(thunk):
    """What thunk raises: a type error's kind, message and position, any
    other error's type and message; or else its value."""
    try:
        return thunk()
    except TypeCheckError as err:
        return TypeCheckError, err.kind, err.message, err.pos
    except (FuelExhausted, StuckError, RecursionError) as err:
        return type(err), str(err)


def _pipeline(e):
    """What a user path asks of a closed program before its checks; an
    ill-typed program stops at its first failure."""
    try:
        src_infer(Context(), e)
        te = translate(Context(), e)
        tgt_infer(Heap(), Context(), te)
        tgt_eval(te)
        src_eval(e)
    except (TypeCheckError, StuckError, FuelExhausted):
        pass


def _reports(name, e, local):
    """Every check on the closed program e, in the order the CLI and the
    benchmark run them."""
    out = [
        check_preservation(name, Context(), e),
        check_sort_preservation(name, Context(), e),
        check_subst_commute(name, Context(), "xs", UNIT_TY, e, UNIT),
        check_differential(name, e),
    ]
    try:
        pairs = source_step_pairs(e)
    except (FuelExhausted, StuckError):
        pairs = []
    out += [check_reduction_preserved(f"{name}.{i}", a, b) for i, (a, b) in enumerate(pairs)]
    out.append(check_step_preservation(name, e, local=local))
    return out


@pytest.mark.parametrize("path", _PARSED_FILES, ids=lambda p: p.name)
def test_checks_report_alike_on_a_judged_term_and_on_a_fresh_parse(path):
    text = path.read_text()
    judged = parse(text)
    _pipeline(judged)
    for local in (True, False):
        fresh = _reports(path.stem, parse(text), local)
        assert _reports(path.stem, judged, local) == fresh
        # every judgement kept by now
        assert _reports(path.stem, judged, local) == fresh


@pytest.mark.parametrize("path", [p for p in _PARSED_FILES if p.parent.name == "negative"],
                         ids=lambda p: p.name)
def test_an_ill_typed_term_fails_the_same_way_every_time(path):
    e = parse(path.read_text())
    first = _raised(lambda: src_infer(Context(), e))
    assert first[0] is TypeCheckError
    assert _raised(lambda: src_infer(Context(), e)) == first
    assert _raised(lambda: translate(Context(), e)) == _raised(lambda: translate(Context(), e))
    assert "_src_type" not in e.__dict__


@pytest.mark.parametrize("path", sorted((CORPUS / "negative").glob("*.tgt")), ids=lambda p: p.name)
def test_an_ill_typed_target_term_fails_the_same_way_every_time(path):
    e = parse(path.read_text(), Lang.TARGET)
    first = _raised(lambda: tgt_infer(Heap(), Context(), e))
    assert first[0] is TypeCheckError
    assert _raised(lambda: tgt_infer(Heap(), Context(), e)) == first
    assert "_tgt_type" not in e.__dict__


def test_running_out_of_stack_is_raised_again_and_never_kept():
    term = "unit"
    for _ in range(200):
        term = f"(pair {term} unit (Sigma (a Unit) Unit))"
    te = translate(Context(), parse(term))
    first = _raised(lambda: tgt_infer(Heap(), Context(), te))
    assert first[0] is RecursionError
    assert _raised(lambda: tgt_infer(Heap(), Context(), te)) == first
    assert "_tgt_type" not in te.__dict__


# two source steps, six target steps
_TWO_STEPS = "(let (x unit Unit) (fst (pair x unit (Sigma (a Unit) Unit))))"


@pytest.mark.parametrize("run", [src_eval, lambda e, **kw: tgt_eval(translate(Context(), e), **kw)],
                         ids=["src_eval", "tgt_eval"])
def test_a_run_is_kept_per_fuel(run):
    enough = parse(_TWO_STEPS)
    value = run(enough)
    assert run(enough) is value
    short = _raised(lambda: run(enough, fuel=1))
    assert short[0] is FuelExhausted
    assert _raised(lambda: run(enough, fuel=1)) == short
    # and in the other order
    starved = parse(_TWO_STEPS)
    assert _raised(lambda: run(starved, fuel=1)) == short
    assert run(starved) == value


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.src")), ids=lambda p: p.name)
def test_kept_judgements_are_invisible_to_equality_hashing_and_printing(path):
    text = path.read_text()
    judged = parse(text)
    _pipeline(judged)
    for key in ("_src_type", "_compiled", f"_src_eval{DEFAULT_FUEL}"):
        assert key in judged.__dict__, key
    te = translate(Context(), judged)
    assert "_tgt_type" in te.__dict__ and f"_tgt_eval{DEFAULT_FUEL}" in te.__dict__
    fresh = parse(text)
    fresh_te = translate(Context(), fresh)
    for a, b, lang in ((judged, fresh, Lang.SOURCE), (te, fresh_te, Lang.TARGET)):
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert print_expr(a, lang) == print_expr(b, lang)


def _swap_slots(monkeypatch):
    """A broken compiler: every tuple gets its second component in its
    first slot and its first component in its second."""
    fill = alloc._fill

    def swapped(ys, ty, v1, v2, tail):
        return fill(ys, ty, v2, v1, tail)

    monkeypatch.setattr(alloc, "_fill", swapped)


def test_fresh_terms_catch_a_compiler_swapped_in_after_judgement(monkeypatch):
    judged = {p.stem: parse(p.read_text()) for p in sorted(CORPUS.glob("*.src"))}
    for e in judged.values():
        _pipeline(e)
    _swap_slots(monkeypatch)
    caught = set()
    for path in sorted(CORPUS.glob("*.src")):
        fresh = parse(path.read_text())
        caught |= {(path.stem, r.prop) for r in _reports(path.stem, fresh, True)
                   if r.verdict != "pass"}
    props = {prop for _, prop in caught}
    assert {"type-preservation", "differential", "reduction-preserved",
            "step-preservation"} <= props, props
    assert {("pair_nested", "type-preservation"), ("clo_app", "differential")} <= caught
    # a term compiled before the swap keeps the compiled form it was given:
    # a test that swaps a rule must build its terms afresh
    assert check_preservation("pair_nested", Context(), judged["pair_nested"]).verdict == "pass"
