"""Compilation of pairs and closures into allocation chains."""

import pytest

from dtalloc.alloc import translate, translate_ctx
from dtalloc.errors import ErrKind, TypeCheckError
from dtalloc.harness import readback
from dtalloc.heap import Config, Heap
from dtalloc.sexpr import Lang, parse, print_expr
from dtalloc.source import src_eval, src_infer
from dtalloc.syntax import (
    Assign1,
    Assign2,
    Clo,
    Context,
    CTag,
    Expr,
    Let,
    Malloc,
    Pair,
    Sigma,
    UNIT,
    UNIT_TY,
    Var,
)
from dtalloc.target import tgt_eval, tgt_infer

GOLDEN_PAIR = (
    "(let (y (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0)))"
    " (let (y1 (assign1 y unit) (Sigma (x Unit 1) (Unit 0)))"
    " (let (y2 (assign2 y1 unit) (Sigma (x Unit 1) (Unit 1))) y2)))"
)


def tr(text, ctx=None):
    return translate(ctx or Context(), parse(text))


def walk(e):
    yield e
    if isinstance(e, Expr):
        for f in e.__dataclass_fields__:
            if f != "pos":
                v = getattr(e, f)
                if isinstance(v, Expr):
                    yield from walk(v)


def test_golden_pair_compilation():
    te = tr("(pair unit unit (Sigma (x Unit) Unit))")
    assert print_expr(te, Lang.TARGET) == GOLDEN_PAIR


def test_pair_chain_shape():
    te = tr("(pair unit unit (Sigma (x Unit) Unit))")
    assert isinstance(te, Let) and isinstance(te.bound, Malloc)
    mid = te.body
    assert isinstance(mid, Let) and isinstance(mid.bound, Assign1)
    last = mid.body
    assert isinstance(last, Let) and isinstance(last.bound, Assign2)
    assert last.body == Var(last.binder)


def test_chain_annotations_share_component_types():
    te = tr("(pair unit unit (Sigma (x Unit) Unit))")
    sigmas = [n.annot for n in walk(te) if isinstance(n, Let)]
    assert [(s.flag1, s.flag2) for s in sigmas] == [(0, 0), (1, 0), (1, 1)]
    assert sigmas[0].dom == sigmas[1].dom == sigmas[2].dom
    assert sigmas[0].cod == sigmas[1].cod == sigmas[2].cod


def test_clo_compiles_to_tagged_chain():
    te = tr("(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit))")
    assert isinstance(te, Let) and isinstance(te.bound, Malloc)
    inner = te.body.body
    assert isinstance(inner.body, CTag)
    # the cell's first component holds the code, typed by its code type
    from dtalloc.syntax import CodeTy

    assert isinstance(te.bound.ty1, CodeTy)


def test_no_pair_or_clo_survives_translation():
    for text in [
        "(pair (pair unit unit (Sigma (a Unit) Unit)) unit (Sigma (p (Sigma (a Unit) Unit)) Unit))",
        "(clo (code ((n Unit) (x Unit)) (pair x x (Sigma (a Unit) Unit))) unit (Pi (x Unit) (Sigma (a Unit) Unit)))",
        "(let (f (clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit)) (Pi (x Unit) Unit)) (app f unit))",
    ]:
        te = tr(text)
        assert not any(isinstance(n, (Pair, Clo)) for n in walk(te))


def test_homomorphic_elsewhere():
    assert tr("unit") == UNIT
    assert tr("(let (x unit Unit) x)") == Let("x", UNIT, UNIT_TY, Var("x"))


def test_user_binder_names_survive():
    te = tr("(let (result unit Unit) (pair result result (Sigma (slot Unit) Unit)))")
    assert isinstance(te, Let) and te.binder == "result"
    sigmas = [n for n in walk(te) if isinstance(n, Sigma)]
    assert all(s.binder == "slot" for s in sigmas)


def test_chain_names_dodge_user_names():
    te = tr("(let (y unit Unit) (pair y y (Sigma (a Unit) Unit)))")
    binders = [n.binder for n in walk(te) if isinstance(n, Let)]
    assert binders[0] == "y"
    assert len(set(binders)) == len(binders)
    # result still runs and types
    tgt_infer(Heap(), Context(), te)
    assert tgt_eval(te).heap.cell(0).flags == (1, 1)


def test_translation_preserves_behaviour_on_nested_pairs():
    text = "(snd (pair unit (pair unit unit (Sigma (a Unit) Unit)) (Sigma (x Unit) (Sigma (a Unit) Unit))))"
    e = parse(text)
    v = src_eval(e)
    final = tgt_eval(translate(Context(), e))
    assert readback(Config(Heap(), v)) == readback(final)


def test_translate_requires_source_forms():
    with pytest.raises(TypeCheckError) as exc:
        translate(Context(), parse("(fst (malloc (x Unit) Unit))", Lang.TARGET))
    assert exc.value.kind is ErrKind.LANG_VIOLATION
    assert (exc.value.message, exc.value.pos) == ("malloc is not a source form", (1, 6))


def test_translate_rejects_partial_sigma():
    with pytest.raises(TypeCheckError) as exc:
        translate(Context(), parse("(Pi (p (Sigma (x Unit 1) (Unit 0))) Unit)", Lang.TARGET))
    assert exc.value.kind is ErrKind.LANG_VIOLATION
    assert exc.value.message == "partially initialized pair type in source"
    assert exc.value.pos == (1, 8)


def test_translate_clo_needs_code_typed_function():
    # a closure whose code part is not code-typed is rejected during
    # translation, which must infer the code type
    bad = Clo(UNIT, UNIT, parse("(Pi (x Unit) Unit)"))
    with pytest.raises(TypeCheckError):
        translate(Context(), bad)


def test_translate_ctx_pointwise():
    ctx = (
        Context()
        .extend("T", parse("Star"), defn=UNIT_TY)
        .extend("p", parse("(Sigma (x Unit) Unit)"))
    )
    tctx = translate_ctx(ctx)
    assert [b.name for b in tctx] == ["T", "p"]
    sig = tctx.lookup("p").ty
    assert isinstance(sig, Sigma) and (sig.flag1, sig.flag2) == (1, 1)
    assert tctx.lookup("T").defn == UNIT_TY


def test_compiled_type_checks_in_target():
    for text in [
        "(pair unit unit (Sigma (x Unit) Unit))",
        "(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit))",
        "(app (clo (code ((X Star) (x X)) x) Unit (Pi (x Unit) Unit)) unit)",
        # normalizing the code type renames its env binder y, shadowed by the
        # let, to y1, which the translator has already issued, so the
        # translated code type renames it again, in its argument type too
        "(let (y unit Unit) (clo (code ((y Star) (x y)) x) Unit (Pi (x Unit) Unit)))",
    ]:
        e = parse(text)
        src_infer(Context(), e)
        tgt_infer(Heap(), Context(), translate(Context(), e))
