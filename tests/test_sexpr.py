"""Surface syntax: reading and printing both languages."""

import runpy
from operator import attrgetter
from pathlib import Path

import pytest
from families import FAMILIES
from hypothesis import given, settings, strategies as st

from dtalloc import sexpr
from dtalloc.alloc import translate
from dtalloc.errors import TypeCheckError
from dtalloc.harness import GenSpec, gen_typed
from dtalloc.sexpr import Lang, ParseError, parse, print_expr
from dtalloc.syntax import (
    App,
    Assign1,
    Assign2,
    Clo,
    Code,
    CodeTy,
    Context,
    CTag,
    Expr,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Pi,
    Sigma,
    Snd,
    UNIT,
    UNIT_TY,
    UnitTm,
    UnitTy,
    Univ,
    Universe,
    Var,
    alpha_eq,
)

ROOT = Path(__file__).resolve().parent.parent


def test_atoms():
    assert parse("unit") == UNIT
    assert parse("Unit") == UNIT_TY
    assert print_expr(parse("Star")) == "Star"
    assert print_expr(parse("Box")) == "Box"
    assert parse("x") == Var("x")


def test_comments_and_whitespace():
    e = parse("; leading note\n  (let (x unit Unit) ; tail note\n x)")
    assert isinstance(e, Let)


def test_positions_recorded():
    e = parse("(let (x unit Unit)\n  (fst x))")
    assert e.pos == (1, 1)
    assert e.body.pos == (2, 3)


def test_let_shape():
    e = parse("(let (x unit Unit) x)")
    assert e == Let("x", UNIT, UNIT_TY, Var("x"))


def test_code_and_clo():
    e = parse("(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit))")
    assert isinstance(e, Clo)
    assert isinstance(e.code, Code)
    assert isinstance(e.annot_pi, Pi)


def test_clo_annotation_must_be_pi():
    with pytest.raises(ParseError):
        parse("(clo (code ((n Unit) (x Unit)) x) unit Unit)")


def test_pair_annotation_must_be_sigma():
    with pytest.raises(ParseError):
        parse("(pair unit unit Unit)")


def test_unflagged_sigma_reads_as_fully_initialized():
    e = parse("(Sigma (x Unit) Unit)")
    assert e == Sigma("x", UNIT_TY, 1, UNIT_TY, 1)
    # same default in the target language
    e2 = parse("(Sigma (x Unit) Unit)", Lang.TARGET)
    assert (e2.flag1, e2.flag2) == (1, 1)


def test_flagged_sigma_is_target_only():
    e = parse("(Sigma (x Unit 1) (Unit 0))", Lang.TARGET)
    assert (e.flag1, e.flag2) == (1, 0)
    with pytest.raises(ParseError):
        parse("(Sigma (x Unit 1) (Unit 0))", Lang.SOURCE)


def test_allocation_forms_are_target_only():
    for text in [
        "(malloc (x Unit) Unit)",
        "(assign1 x unit)",
        "(assign2 x unit)",
        "(ctag x)",
    ]:
        parse(text, Lang.TARGET)
        with pytest.raises(ParseError):
            parse(text, Lang.SOURCE)


def test_loc_never_parses():
    with pytest.raises(ParseError):
        parse("(loc 0)", Lang.SOURCE)
    with pytest.raises(ParseError):
        parse("(loc 0)", Lang.TARGET)


def test_reserved_words_are_not_identifiers():
    with pytest.raises(ParseError):
        parse("(let (pair unit Unit) pair)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("unit unit")


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse("(fst (pair unit unit (Sigma (x Unit) Unit))")
    with pytest.raises(ParseError):
        parse(")")


def test_parse_error_rendering():
    try:
        parse("(fst)")
    except ParseError as err:
        assert err.render().startswith("error[ParseError] 1:")
    else:
        pytest.fail("expected a parse error")


def test_app_fst_snd():
    e = parse("(app f x)")
    assert e == App(Var("f"), Var("x"))
    assert print_expr(parse("(fst (snd p))")) == "(fst (snd p))"


def test_print_source_rejects_target_forms():
    with pytest.raises(ValueError):
        print_expr(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), Lang.SOURCE)
    with pytest.raises(ValueError):
        print_expr(Malloc("x", UNIT_TY, UNIT_TY), Lang.SOURCE)
    # locations still render anywhere so traces can be printed
    assert print_expr(Loc(0), Lang.SOURCE) == "(loc 0)"


def test_print_target_always_flags_sigma():
    s = Sigma("x", UNIT_TY, 1, UNIT_TY, 1)
    assert print_expr(s, Lang.TARGET) == "(Sigma (x Unit 1) (Unit 1))"
    assert print_expr(s, Lang.SOURCE) == "(Sigma (x Unit) Unit)"


def test_print_loc_target():
    assert print_expr(Loc(3), Lang.TARGET) == "(loc 3)"


def test_pair_roundtrip():
    text = "(pair unit unit (Sigma (x Unit) Unit))"
    e = parse(text)
    assert isinstance(e, Pair)
    assert print_expr(e) == text


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_source_print_parse_roundtrip(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
    assert alpha_eq(parse(print_expr(e, Lang.SOURCE), Lang.SOURCE), e)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_target_print_parse_roundtrip(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
    te = translate(Context(), e)
    assert alpha_eq(parse(print_expr(te, Lang.TARGET), Lang.TARGET), te)


def test_reader_and_printer_match_golden():
    # what the reader makes of every corpus file, every reader message,
    # forms of every head and seeded token mutations, and what the printer
    # makes of generated and compiled terms, byte for byte
    recorder = runpy.run_path(str(ROOT / "scripts" / "record_sexpr_golden.py"))
    assert recorder["render"]() == (ROOT / "tests" / "golden" / "sexpr_corpus.txt").read_text()


def _deep_texts(n, lang):
    """A projection chain and lets nested in bound position, n levels deep."""
    sigma = "(Sigma (a Unit) Unit)" if lang is Lang.SOURCE else "(Sigma (a Unit 1) (Unit 1))"
    chain = "unit"
    for _ in range(n):
        chain = f"(fst (pair {chain} unit {sigma}))"
    lets = "(let (x " * n + "unit" + " Unit) x)" * n
    return chain, lets


@pytest.mark.parametrize("lang", [Lang.SOURCE, Lang.TARGET], ids=lambda lang: lang.value)
def test_reader_and_printer_take_5000_levels(lang):
    # five times Python's default recursion limit: neither walker takes a
    # Python frame per level
    for text in _deep_texts(5000, lang):
        e = parse(text, lang)
        assert print_expr(e, lang) == reference_print(e, lang) == text


# ---------------------------------------------------------------------------
# The printer against a reference renderer

_REFERENCE_PLANS = {lang: {sexpr._FORMS[h][0]: plan[1] for h, plan in plans.items()}
                    for lang, plans in sexpr._PLANS.items()}
_REFERENCE_ATOMS = {
    Var: attrgetter("name"),
    Univ: lambda e: e.kind.value,
    UnitTm: lambda e: "unit",
    UnitTy: lambda e: "Unit",
    Loc: lambda e: f"(loc {e.loc_id})",
}


def reference_print(e: Expr, lang: Lang = Lang.SOURCE) -> str:
    """print_expr as a plain interpreter of the printer plans: every node
    is expanded from its template, and names and flags are pieces of their
    own."""
    plans = _REFERENCE_PLANS[lang]
    out, todo = [], [e]
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is str or cls is int:  # text, a name, or a flag
            out.append(str(item))
        elif cls in plans:
            plan = plans[cls]
            if type(plan) is str:
                raise ValueError(plan)
            template, args, ones, refusal = plan
            if ones and any(getattr(item, f) != 1 for f in ones):
                raise ValueError(refusal)
            parts = template.copy()
            parts[1::2] = [getattr(item, f) for f, _ in args]
            todo += reversed(parts)
        elif cls in _REFERENCE_ATOMS:
            out.append(_REFERENCE_ATOMS[cls](item))
        else:
            raise TypeError(f"unknown expression node: {item!r}")
    return "".join(out)


def _outcome(printer, e, lang):
    """What printer makes of e in lang: its text, or the type and message
    of what it raises."""
    try:
        return printer(e, lang)
    except (ValueError, TypeError) as err:
        return type(err), str(err)


def _assert_printers_agree(e, langs=(Lang.SOURCE, Lang.TARGET)):
    for lang in langs:
        assert _outcome(print_expr, e, lang) == _outcome(reference_print, e, lang), lang


def _corpus_terms():
    """Every corpus and negative file, read in each language that reads it."""
    out = []
    for path in sorted(ROOT.glob("corpus/*.src")) + sorted(ROOT.glob("corpus/negative/*")):
        for lang in Lang:
            try:
                out.append(parse(path.read_text(), lang))
            except ParseError:
                pass
    return out


def test_printer_agrees_with_the_reference_on_the_corpus():
    terms = _corpus_terms()
    assert len(terms) > 60
    compiled = 0
    for e in terms:
        _assert_printers_agree(e)
        try:
            te = translate(Context(), e)
        except TypeCheckError:  # an ill-typed or target term has no compiled form
            continue
        _assert_printers_agree(te)
        compiled += 1
    assert compiled >= 37


def test_printer_agrees_with_the_reference_on_the_families():
    for family in sorted(FAMILIES):
        for n in range(1, 9):
            e = parse(FAMILIES[family](n))
            _assert_printers_agree(e)
            _assert_printers_agree(translate(Context(), e), (Lang.TARGET,))


def test_printer_agrees_with_the_reference_on_generated_programs():
    for seed in range(200):
        _, e, _ = gen_typed(GenSpec(depth=4, seed=seed, closed=True))
        _assert_printers_agree(e, (Lang.SOURCE,))
        _assert_printers_agree(translate(Context(), e))


_NAMES = st.sampled_from(["x", "y1", "n", "a'"])
_FLAGS = st.sampled_from([0, 1])
_LEAVES = st.one_of(
    st.builds(Var, _NAMES), st.builds(UnitTm), st.builds(UnitTy),
    st.builds(Univ, st.sampled_from(Universe)), st.builds(Loc, st.integers(0, 12)))


def _nodes(sub):
    pis = st.builds(Pi, _NAMES, sub, sub)
    sigmas = st.builds(Sigma, _NAMES, sub, _FLAGS, sub, _FLAGS)
    return st.one_of(
        pis, sigmas,
        st.builds(Let, _NAMES, sub, sub, sub),
        st.builds(Code, _NAMES, sub, _NAMES, sub, sub),
        st.builds(CodeTy, _NAMES, sub, _NAMES, sub, sub),
        st.builds(Clo, sub, sub, pis), st.builds(Pair, sub, sub, sigmas),
        st.builds(App, sub, sub), st.builds(Fst, sub), st.builds(Snd, sub),
        st.builds(Malloc, _NAMES, sub, sub), st.builds(Assign1, sub, sub),
        st.builds(Assign2, sub, sub), st.builds(CTag, sub),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_LEAVES, _nodes, max_leaves=24))
def test_printer_agrees_with_the_reference_on_any_term(e):
    _assert_printers_agree(e)


def test_printer_refuses_what_the_reference_refuses():
    flagged = Sigma("x", UNIT_TY, 1, UNIT_TY, 0)
    cases = [flagged, Pair(UNIT, UNIT, flagged),
             Let("x", UNIT, UNIT_TY, Malloc("x", UNIT_TY, UNIT_TY)),
             Assign1(Var("y"), UNIT), Assign2(Var("y"), UNIT), CTag(Var("y")),
             # the first refusal met in pre-order is the one raised
             App(CTag(Var("y")), flagged), App(flagged, CTag(Var("y")))]
    for e in cases:
        got = _outcome(print_expr, e, Lang.SOURCE)
        assert got[0] is ValueError and got == _outcome(reference_print, e, Lang.SOURCE), e
        assert _outcome(print_expr, e, Lang.TARGET) == _outcome(reference_print, e, Lang.TARGET)
    for e in (object(), Fst(None), App(UNIT, Pair(UNIT, object(), flagged))):
        for lang in Lang:
            got = _outcome(print_expr, e, lang)
            assert got[0] is TypeError and got == _outcome(reference_print, e, lang)
