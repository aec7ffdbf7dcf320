"""Judgements kept on the node: a closed term's compiled form, source and
target types and final states, and the type of heap-free code, are made
once per node, and reused by every check that asks for them again."""

from dataclasses import fields
from pathlib import Path

import pytest

from dtalloc import alloc, target
from dtalloc.alloc import translate
from dtalloc.conversion import DEFAULT_FUEL
from dtalloc.errors import ErrKind, FuelExhausted, StuckError, TypeCheckError
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
from dtalloc.syntax import UNIT, UNIT_TY, Code, Context, Expr, Fst, Loc, heap_free, subterms
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


# ---------------------------------------------------------------------------
# The type of code, kept per language and mode

_MODES = {"synthesis": target._norm_ty, "checking": target._head}
_CODE_KEYS = set(target._CODE_TYPE.values())


def _code_type(lang, e, mode, heap=None):
    return target._synth(lang, Heap() if heap is None else heap, Context(), e, _MODES[mode])


def _fresh(e):
    """A copy of e with a new object at every position and nothing kept."""
    args = [getattr(e, f.name) for f in fields(e)]
    return type(e)(*(_fresh(a) if isinstance(a, Expr) else a for a in args))


def _codes(e):
    return [c for c in subterms(e) if type(c) is Code]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.src")), ids=lambda p: p.name)
def test_a_kept_code_type_is_the_type_of_a_fresh_copy(path):
    e = parse(path.read_text())
    _pipeline(e)
    te = translate(Context(), e)
    for lang, term in ((Lang.SOURCE, e), (Lang.TARGET, te)):
        for c in _codes(term):
            for mode in _MODES:
                ty = _code_type(lang, c, mode)
                assert (target._CODE_TYPE[lang, _MODES[mode]] in c.__dict__) == heap_free(c)
                if heap_free(c):
                    assert _code_type(lang, c, mode) is ty
                fresh = _code_type(lang, _fresh(c), mode)
                assert ty == fresh and print_expr(ty, lang) == print_expr(fresh, lang)


def test_a_code_type_kept_in_one_language_is_not_read_in_the_other():
    # the target joins pair components of two universes, the source does not
    text = "(code ((n Unit) (x Unit)) (Sigma (a Star) Unit))"
    c = parse(text, Lang.TARGET)
    for mode in _MODES:
        assert print_expr(_code_type(Lang.TARGET, c, mode), Lang.TARGET) == \
            "(Code ((n Unit) (x Unit)) Box)"
    assert {k for k in c.__dict__ if k in _CODE_KEYS} == {"_tgt_code_type", "_tgt_code_checking"}
    for mode in _MODES:
        for _ in range(2):
            got = _raised(lambda: _code_type(Lang.SOURCE, c, mode))
            assert got[:2] == (TypeCheckError, ErrKind.UNIVERSE_ERROR), got
    assert "_src_code_type" not in c.__dict__ and "_src_code_checking" not in c.__dict__


def test_a_code_type_kept_in_one_mode_is_not_read_in_the_other():
    # checking mode leaves the codomain of the applied function as written
    c = parse("(code ((n Unit) (f (Pi (y Unit) (fst (pair Unit Unit (Sigma (a Star) Star))))))"
              " (app f unit))")
    want = {"synthesis": "Unit", "checking": "(fst (pair Unit Unit (Sigma (a Star) Star)))"}
    for order in (("synthesis", "checking"), ("checking", "synthesis")):
        c = _fresh(c)
        for mode in order * 2:
            assert print_expr(_code_type(Lang.SOURCE, c, mode).result_ty) == want[mode], mode
        assert {k for k in c.__dict__ if k in _CODE_KEYS} == {"_src_code_type",
                                                              "_src_code_checking"}


def test_open_code_is_refused_on_every_ask_and_never_kept():
    for lang in Lang:
        c = parse("(code ((n Unit) (x Unit)) z)", lang)
        for mode in _MODES:
            for _ in range(2):
                got = _raised(lambda: _code_type(lang, c, mode))
                assert got[:3] == (TypeCheckError, ErrKind.OPEN_CODE,
                                   "code mentions outer variables: z"), got
        assert not _CODE_KEYS & set(c.__dict__)


def test_code_that_holds_a_location_is_never_kept():
    heap = tgt_eval(translate(Context(), parse("(pair unit unit (Sigma (a Unit) Unit))"))).heap
    c = Code("n", UNIT_TY, "x", UNIT_TY, Fst(Loc(0)))
    for mode in _MODES:
        for _ in range(2):
            assert print_expr(_code_type(Lang.TARGET, c, mode, heap), Lang.TARGET) == \
                "(Code ((n Unit) (x Unit)) Unit)"
        # typed against another heap, it names a cell that is not there
        got = _raised(lambda: _code_type(Lang.TARGET, c, mode))
        assert got[:2] == (TypeCheckError, ErrKind.UNKNOWN_LOC), got
    assert not _CODE_KEYS & set(c.__dict__)
