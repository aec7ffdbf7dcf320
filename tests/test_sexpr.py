"""Surface syntax: reading and printing both languages."""

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dtalloc.alloc import translate
from dtalloc.harness import GenSpec, gen_typed
from dtalloc.sexpr import Lang, ParseError, parse, print_expr
from dtalloc.syntax import (
    App,
    Clo,
    Code,
    Context,
    Let,
    Loc,
    Pair,
    Pi,
    Sigma,
    UNIT,
    UNIT_TY,
    Var,
    alpha_eq,
)


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
    from dtalloc.syntax import Malloc

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
    root = Path(__file__).resolve().parent.parent
    recorder = runpy.run_path(str(root / "scripts" / "record_sexpr_golden.py"))
    assert recorder["render"]() == (root / "tests" / "golden" / "sexpr_corpus.txt").read_text()


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
        assert print_expr(parse(text, lang), lang) == text
