"""Compilation of pairs and closures into allocation chains."""

import itertools
from pathlib import Path

import pytest
from families import FAMILIES
from hypothesis import given, settings
from hypothesis import strategies as st

from dtalloc.alloc import translate, translate_ctx
from dtalloc.errors import ErrKind, TypeCheckError
from dtalloc.harness import (
    GenSpec,
    check_differential,
    check_preservation,
    check_reduction_preserved,
    check_step_preservation,
    gen_typed,
    readback,
    source_step_pairs,
)
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
    UnitTy,
    Var,
    subterms,
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
        # the same with the argument binder named like the env binder: n can
        # still be renamed here, since normalizing the code type renames an
        # env binder named like a let-bound variable and the new name can be
        # one this translator has issued, and the renaming must reach the
        # argument type, which the env binder scopes, and not the result
        # type, which the argument binder of the same name shadows
        "(let (y Unit Star) (clo (code ((y Star) (y y)) unit) Unit (Pi (a Unit) Unit)))",
        "(let (z Unit Star) (clo (code ((z Star) (z z)) unit) Unit (Pi (w Unit) Unit)))",
        # normalizing renames the env binder y to y1, which is renamed again
        # here, and not to y11, the argument binder's name, which would
        # capture the env binder in the result type
        "(let (y Unit Star) (clo (code ((y Star) (y11 y)) y11) y (Pi (y11 y) y)))",
    ]:
        e = parse(text)
        src_infer(Context(), e)
        tgt_infer(Heap(), Context(), translate(Context(), e))


# Closure and pair programs whose let, env, argument and pair-type binders
# ({L}, {E}, {A}, {P}) are drawn from the translator's chain names y and y1,
# its closure-tuple binder z and a user name x, so binders repeat each other
# and the names the translator generates, as generated cases never do.
SAME_NAME_TEMPLATES = [
    "(let ({L} Unit Star) (clo (code (({E} Star) ({A} {E})) unit) {L} (Pi (a {L}) Unit)))",
    "(let ({L} Unit Star) (clo (code (({E} Star) ({A} {E})) {A}) {L} (Pi ({A} {L}) {L})))",
    "(let ({L} (clo (code ((n Unit) (w Unit)) Unit) unit (Pi (w Unit) Star)) (Pi (w Unit) Star))"
    " (pair unit unit (Sigma ({P} Unit) (app {L} {P}))))",
    "(let ({L} Unit Star) (clo (code (({E} Star) ({A} {E})) (pair {A} {A} (Sigma ({P} {E}) {E})))"
    " {L} (Pi ({A} {L}) (Sigma ({P} {L}) {L}))))",
    "(let ({L} Unit Star) (pair unit (clo (code (({E} Star) ({A} {E})) {A}) {L} (Pi ({A} {L}) {L}))"
    " (Sigma ({P} {L}) (Pi ({A} {L}) {L}))))",
]


def test_same_name_binders_keep_every_property():
    kept, failed = 0, []
    for template in SAME_NAME_TEMPLATES:
        slots = [k for k in "LEAP" if "{%s}" % k in template]
        for names in itertools.product(("y", "y1", "x", "z"), repeat=len(slots)):
            text = template.format(**dict(zip(slots, names)))
            e = parse(text)
            try:
                src_infer(Context(), e)
            except TypeCheckError:
                continue
            kept += 1
            reports = [
                check_preservation(text, Context(), e),
                check_differential(text, e),
                check_step_preservation(text, e),
            ]
            reports += [check_reduction_preserved(text, a, b) for a, b in source_step_pairs(e)]
            failed += [(r.case_id, r.prop, r.detail) for r in reports if r.verdict != "pass"]
    assert kept > 300 and not failed


# Sharing: the translator makes each distinct pair type of one compiled
# term a single object; the programs below are the corpus and the
# families at sizes 1-8, and generated closed programs.
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SHARING_PROGRAMS = [(p.stem, p.read_text()) for p in sorted(CORPUS.glob("*.src"))] + [
    (f"{f}/{n}", FAMILIES[f](n)) for f in sorted(FAMILIES) for n in range(1, 9)
]


def _sigma_objects(e):
    """The distinct Sigma objects in e."""
    return list({id(n): n for n in subterms(e) if type(n) is Sigma}.values())


def _sharing_key(s):
    # equal keys mean equal types: Unit by value, other components by identity
    part = [c if type(c) is UnitTy else id(c) for c in (s.dom, s.cod)]
    return (s.binder, s.flag1, s.flag2, *part)


def unshared(e):
    """A deep copy of e in which every position holds an object of its own."""
    args = {f: getattr(e, f) for f in e.__dataclass_fields__}
    return type(e)(**{f: unshared(v) if isinstance(v, Expr) else v for f, v in args.items()})


def _assert_shared_and_unchanged(e):
    te = translate(Context(), e)
    sigmas = _sigma_objects(te)
    assert len({_sharing_key(s) for s in sigmas}) == len(sigmas)
    copy = unshared(te)
    nodes = list(subterms(copy))
    assert copy == te and len({id(n) for n in nodes}) == len(nodes)
    assert print_expr(copy, Lang.TARGET) == print_expr(te, Lang.TARGET)
    ty, copy_ty = (tgt_infer(Heap(), Context(), t) for t in (te, copy))
    assert print_expr(copy_ty, Lang.TARGET) == print_expr(ty, Lang.TARGET)
    assert readback(tgt_eval(copy)) == readback(tgt_eval(te))


@pytest.mark.parametrize("name,text", SHARING_PROGRAMS, ids=[n for n, _ in SHARING_PROGRAMS])
def test_one_object_per_pair_type_and_an_unshared_copy_behaves_alike(name, text):
    _assert_shared_and_unchanged(parse(text))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_generated_programs_share_pair_types_and_behave_as_unshared(seed):
    _assert_shared_and_unchanged(gen_typed(GenSpec(depth=4, seed=seed, closed=True))[1])


def test_compiled_nested_pairs_hold_three_pair_types_per_level():
    for n in range(1, 17):
        # one full pair type per level and its (0,0) and (1,0) forms; 168
        # objects at n = 16 when every annotation was a copy of its own
        assert len(_sigma_objects(tr(FAMILIES["nested_pairs"](n)))) <= 3 * n, n
