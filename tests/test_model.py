"""Relational model emission."""

from pathlib import Path

import pytest

from dtalloc.alloc import translate
from dtalloc.model import Unsupported, _Modeler, emit_model
from dtalloc.sexpr import Lang, parse
from dtalloc.syntax import (
    Assign1,
    Assign2,
    Clo,
    Code,
    Context,
    CodeTy,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Pi,
    STAR,
    Sigma,
    Snd,
    UNIT,
    UNIT_TY,
    Var,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def m(e):
    """The model of a closed target term or type."""
    return str(_Modeler().model(e, {}))


def mt(text):
    return m(parse(text, Lang.TARGET))


# ---------------------------------------------------------------------------
# Pair type schemas

def test_sigma_schema_uninitialized():
    assert m(Sigma("x", UNIT_TY, 0, UNIT_TY, 0)) == (
        "(sigma (p : (sigma (x : (Maybe Unit)) (Maybe Unit))) (eq p (pair None None)))"
    )


def test_sigma_schema_half_initialized():
    assert m(Sigma("x", UNIT_TY, 1, UNIT_TY, 0)) == (
        "(sigma (p : (sigma (x : (Maybe Unit)) (Maybe Unit)))"
        " (exists (e1 : Unit) (eq p (pair (Just e1) None))))"
    )


def test_sigma_schema_full():
    assert m(Sigma("x", UNIT_TY, 1, UNIT_TY, 1)) == (
        "(sigma (p : (sigma (x : (Maybe Unit)) (Maybe Unit)))"
        " (exists (e1 : Unit) (exists (e2 : Unit)"
        " (eq p (pair (Just e1) (Just e2))))))"
    )


def test_sigma_schema_dependent_witness():
    # the second existential's type sees the first witness
    ty = Sigma("X", STAR, 1, Pi("y", Var("X"), STAR), 1)
    out = m(ty)
    assert "(exists (e2 : (pi (y : e1) Star))" in out


def test_sigma_witness_type_renames_only_what_it_would_capture():
    # the inner pair type does not mention x, so its own first witness
    # keeps the name e1 inside the outer witness's type
    out = mt("(Sigma (x Unit 1) ((Sigma (a Unit 1) (Unit 1)) 1))")
    inner = (
        "(sigma (p : (sigma (a : (Maybe Unit)) (Maybe Unit)))"
        " (exists (e1 : Unit) (exists (e2 : Unit) (eq p (pair (Just e1) (Just e2))))))"
    )
    assert out == (
        f"(sigma (p : (sigma (x : (Maybe Unit)) (Maybe {inner})))"
        f" (exists (e1 : Unit) (exists (e2 : {inner}) (eq p (pair (Just e1) (Just e2))))))"
    )


def test_sigma_witness_type_renames_a_witness_that_would_capture():
    # the inner pair type mentions x, which becomes the outer witness e1 in
    # the second witness's type: the inner witness moves to e11
    out = mt("(Sigma (x Star 1) ((Sigma (a x 1) (x 1)) 1))")
    assert out.endswith(
        "(exists (e1 : Star) (exists (e2 : (sigma (p : (sigma (a : (Maybe e1)) (Maybe e1)))"
        " (exists (e11 : e1) (exists (e2 : e1) (eq p (pair (Just e11) (Just e2)))))))"
        " (eq p (pair (Just e1) (Just e2))))))"
    )


def test_sigma_backwards_flags_unsupported():
    with pytest.raises(Unsupported):
        m(Sigma("x", UNIT_TY, 0, UNIT_TY, 1))


def test_binder_collision_with_schema_names():
    # a pair type whose binder is already p must not capture the packed name
    ty = Sigma("p", UNIT_TY, 0, UNIT_TY, 0)
    out = m(ty)
    assert out.startswith("(sigma (p1 : (sigma (p : (Maybe Unit))")


def test_goldens_are_byte_stable():
    for f1, f2 in [(0, 0), (1, 0), (1, 1)]:
        ty = Sigma("x", UNIT_TY, f1, UNIT_TY, f2)
        frozen = (GOLDEN / f"model_sigma_{f1}{f2}.txt").read_text()
        assert emit_model(ty) == frozen


# ---------------------------------------------------------------------------
# Term forms

def test_malloc_models_as_empty_pair_with_proof():
    assert m(Malloc("x", UNIT_TY, UNIT_TY)) == "(pair (pair None None) refl)"


def test_assignments_step_literal_states():
    chain1 = Assign1(Malloc("x", UNIT_TY, UNIT_TY), UNIT)
    assert m(chain1) == "(pair (pair (Just unit) None) refl)"
    chain2 = Assign2(chain1, UNIT)
    assert m(chain2) == "(pair (pair (Just unit) (Just unit)) refl)"


def test_assignments_on_opaque_tuples_project():
    t = Var("t")
    assert m(Assign1(t, UNIT)) == "(pair (pair (Just unit) (snd (fst t))) refl)"
    assert m(Assign2(t, UNIT)) == "(pair (pair (fst (fst t)) (Just unit)) refl)"


def test_projections_use_maybe_helpers():
    assert m(Fst(Var("t"))) == "(maybe-fst t)"
    assert m(Snd(Var("t"))) == "(maybe-snd t)"


def test_ctag_is_erased():
    from dtalloc.syntax import CTag

    assert m(CTag(Var("t"))) == "t"


def test_let_is_inlined():
    e = parse("(let (x (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0))) (assign1 x unit))", Lang.TARGET)
    assert m(e) == "(pair (pair (Just unit) None) refl)"


def test_let_inlining_respects_shadowing():
    text = "(let (x unit Unit) (app (code ((n Unit) (x Unit)) x) x))"
    e = parse(text, Lang.TARGET)
    out = m(e)
    # the code's own x stays bound; only the outer one inlines
    assert out == "((lam (n : Unit) (lam (x : Unit) x)) unit)"


def test_let_inlining_renames_a_binder_that_would_capture():
    # a's definition mentions the code's x, so the Pi's own x is renamed
    out = mt("(code ((n Unit) (x Unit)) (let (a x Unit) (Pi (x Unit) a)))")
    assert out == "(lam (n : Unit) (lam (x : Unit) (pi (x1 : Unit) x)))"


def test_let_inlining_renames_a_binder_away_from_its_scope():
    # the Pi's y must move away from a's y, and also from the y1 its body
    # reads: y1 there is the code's argument
    out = mt("(code ((y Unit) (y1 Unit)) (let (a y Unit) (Pi (y Unit) (app a y1))))")
    assert out == "(lam (y : Unit) (lam (y1 : Unit) (pi (y2 : Unit) (y y1))))"


def test_unused_let_is_still_modeled():
    text = emit_model(parse("(let (a (fst t) Unit) unit)", Lang.TARGET))
    assert text.splitlines()[2].startswith("; maybe-fst :")
    assert text.endswith("\nunit\n")
    with pytest.raises(Unsupported):
        m(Let("a", Loc(0), UNIT_TY, UNIT))


def test_code_models_as_curried_lambda():
    c = Code("n", UNIT_TY, "x", UNIT_TY, Var("x"))
    assert m(c) == "(lam (n : Unit) (lam (x : Unit) x))"


def test_code_type_models_as_curried_pi():
    ct = CodeTy("n", UNIT_TY, "x", UNIT_TY, UNIT_TY)
    assert m(ct) == "(pi (n : Unit) (pi (x : Unit) Unit))"


def test_runtime_and_source_forms_unsupported():
    with pytest.raises(Unsupported):
        m(Loc(0))
    with pytest.raises(Unsupported):
        m(Pair(UNIT, UNIT, Sigma("x", UNIT_TY, 1, UNIT_TY, 1)))
    with pytest.raises(Unsupported):
        m(
            Clo(Code("n", UNIT_TY, "x", UNIT_TY, Var("x")), UNIT, Pi("x", UNIT_TY, UNIT_TY))
        )


def test_compiled_pair_models_to_full_state():
    e = parse("(pair unit unit (Sigma (x Unit) Unit))")
    te = translate(Context(), e)
    assert m(te) == "(pair (pair (Just unit) (Just unit)) refl)"


def test_emit_header_lists_input_schemas_and_helpers():
    e = parse("(fst (assign1 (malloc (x Unit) Unit) unit))", Lang.TARGET)
    text = emit_model(e)
    lines = text.splitlines()
    assert lines[0] == "; model of: (fst (assign1 (malloc (x Unit) Unit) unit))"
    assert lines[1] == "; schemas: none"
    assert lines[2].startswith("; maybe-fst :")
    assert lines[-1] == "(maybe-fst (pair (pair (Just unit) None) refl))"
    assert text.endswith("\n")


def test_emit_header_schema_listing():
    ty = Sigma("x", UNIT_TY, 1, UNIT_TY, 1)
    nested = Sigma("q", ty, 0, Sigma("r", UNIT_TY, 1, UNIT_TY, 0), 0)
    text = emit_model(nested)
    assert "; schemas: sigma00 sigma10 sigma11" in text


def test_corpus_models_match_golden():
    # the dtalloc model output of every corpus program, each after a line
    # naming its file
    parts = []
    for f in sorted(CORPUS.glob("*.src")):
        e = parse(f.read_text())
        parts.append(f"== {f.name}\n" + emit_model(translate(Context(), e)))
    assert "".join(parts) == (GOLDEN / "model_corpus.txt").read_text()
