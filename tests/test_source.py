"""Source language: typing, conversion, and the evaluator."""

import pytest

from dtalloc.conversion import equiv, normalize, subtype
from dtalloc.errors import ErrKind, FuelExhausted, StuckError, TypeCheckError
from dtalloc.heap import Heap
from dtalloc.sexpr import Lang, parse
from dtalloc.source import (
    src_eval,
    src_infer,
    src_step,
    src_steps,
    src_trace,
    src_wf,
)
from dtalloc.syntax import (
    App,
    Assign1,
    Assign2,
    BOX,
    Code,
    Context,
    CTag,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Pi,
    STAR,
    Sigma,
    UNIT,
    UNIT_TY,
    Var,
    alpha_eq,
)
from dtalloc.target import check


def infer(text, ctx=None):
    return src_infer(ctx or Context(), parse(text))


def err_kind(text, ctx=None):
    with pytest.raises(TypeCheckError) as exc:
        infer(text, ctx)
    return exc.value.kind


# ---------------------------------------------------------------------------
# Sorts and base types

def test_universe_layering():
    assert infer("Star") == BOX
    assert infer("Unit") == STAR
    assert infer("unit") == UNIT_TY
    assert err_kind("Box") is ErrKind.UNIVERSE_ERROR


def test_pi_formation_all_sort_combinations():
    # small/small, small/large, large/small, large/large
    assert src_infer(Context(), Pi("x", UNIT_TY, UNIT_TY)) == STAR
    assert src_infer(Context(), Pi("x", UNIT_TY, STAR)) == BOX
    assert src_infer(Context(), Pi("X", STAR, Var("X"))) == STAR
    assert src_infer(Context(), Pi("X", STAR, STAR)) == BOX


def test_sigma_needs_equal_sorts():
    assert src_infer(Context(), Sigma("x", UNIT_TY, 1, UNIT_TY, 1)) == STAR
    assert src_infer(Context(), Sigma("X", STAR, 1, STAR, 1)) == BOX
    with pytest.raises(TypeCheckError) as exc:
        src_infer(Context(), Sigma("X", STAR, 1, Var("X"), 1))
    assert exc.value.kind is ErrKind.UNIVERSE_ERROR


def test_unbound_variable():
    assert err_kind("x") is ErrKind.UNBOUND_VAR


# ---------------------------------------------------------------------------
# Let and definitional unfolding

def test_let_definition_unfolds_in_conversion():
    # the pair annotation applies a let-bound family, so checking the
    # second component needs the definition of F
    text = """
    (let (F (clo (code ((n Unit) (y Unit)) Unit) unit (Pi (y Unit) Star)) (Pi (y Unit) Star))
      (pair unit unit (Sigma (x Unit) (app F x))))
    """
    ty = infer(text)
    assert isinstance(ty, Sigma)


def test_let_result_type_mentions_bound_term():
    ty = infer("(let (T Unit Star) (pair unit unit (Sigma (x T) T)))")
    assert alpha_eq(ty, Sigma("x", UNIT_TY, 1, UNIT_TY, 1))


def test_let_annotation_checked():
    assert err_kind("(let (x unit Star) x)") is ErrKind.SUBTYPE_FAIL


# ---------------------------------------------------------------------------
# Code and closures

def test_code_must_be_closed():
    ctx = Context().extend("y", UNIT_TY)
    c = Code("n", UNIT_TY, "x", UNIT_TY, Var("y"))
    with pytest.raises(TypeCheckError) as exc:
        src_infer(ctx, c)
    assert exc.value.kind is ErrKind.OPEN_CODE


def test_code_type_is_code_type():
    from dtalloc.syntax import CodeTy

    ty = infer("(code ((n Unit) (x Unit)) x)")
    assert alpha_eq(ty, CodeTy("n", UNIT_TY, "x", UNIT_TY, UNIT_TY))


def test_clo_annotation_must_match():
    assert (
        err_kind("(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) (Pi (y Unit) Unit)))")
        is ErrKind.ANNOT_MISMATCH
    )


def test_clo_types_at_annotation():
    ty = infer("(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit))")
    assert alpha_eq(ty, Pi("x", UNIT_TY, UNIT_TY))


def test_clo_env_checked_against_code():
    assert (
        err_kind("(clo (code ((n Star) (x Unit)) x) unit (Pi (x Unit) Unit))")
        is ErrKind.SUBTYPE_FAIL
    )


def test_dependent_code_argument_type():
    # the argument type is the environment itself
    ty = infer("(app (clo (code ((X Star) (x X)) x) Unit (Pi (x Unit) Unit)) unit)")
    assert alpha_eq(ty, UNIT_TY)


# ---------------------------------------------------------------------------
# Application and projections

def test_app_substitutes_argument():
    ctx = (
        Context()
        .extend("F", Pi("y", UNIT_TY, STAR))
        .extend("a", UNIT_TY)
    )
    ty = src_infer(ctx, App(Var("F"), Var("a")))
    assert ty == STAR


def test_app_non_function():
    assert err_kind("(app unit unit)") is ErrKind.NOT_A_FUNCTION


def test_projection_types():
    p = "(pair unit unit (Sigma (x Unit) Unit))"
    assert alpha_eq(infer(f"(fst {p})"), UNIT_TY)
    assert alpha_eq(infer(f"(snd {p})"), UNIT_TY)
    assert err_kind("(fst unit)") is ErrKind.NOT_A_PAIR


def test_dependent_snd_type_mentions_fst():
    text = """
    (snd (pair Unit (clo (code ((n Unit) (y Unit)) Unit) unit (Pi (y Unit) Star))
               (Sigma (X Star) (Pi (y X) Star))))
    """
    e = parse(text)
    ty = src_infer(Context(), e)
    assert isinstance(ty, Pi)
    assert isinstance(ty.dom, Fst)


def test_pair_second_component_checked_under_substitution():
    # cod is (app F x) which only equals Unit after beta
    text = """
    (pair unit unit
      (Sigma (x Unit)
             (app (clo (code ((n Unit) (y Unit)) Unit) unit (Pi (y Unit) Star)) x)))
    """
    assert isinstance(infer(text), Sigma)


# ---------------------------------------------------------------------------
# Language boundary

# Every form the source lacks, at a position of its own, and the message
# that rejects it.
NOT_SOURCE = [
    (Malloc("x", UNIT_TY, UNIT_TY, pos=(2, 5)), "malloc is not a source form"),
    (Assign1(Var("t"), UNIT, pos=(2, 5)), "assign1 is not a source form"),
    (Assign2(Var("t"), UNIT, pos=(2, 5)), "assign2 is not a source form"),
    (CTag(Var("t"), pos=(2, 5)), "ctag is not a source form"),
    (Loc(0, pos=(2, 5)), "loc is not a source form"),
]


def rejections(term):
    """The (kind, message, pos) of every error with which src_wf and
    src_infer reject term, alone and as the body of a let."""
    found = set()
    for e in (term, Let("y", UNIT, UNIT_TY, term, pos=(1, 1))):
        for judge in (src_wf, lambda t: src_infer(Context(), t)):
            with pytest.raises(TypeCheckError) as exc:
                judge(e)
            found.add((exc.value.kind, exc.value.message, exc.value.pos))
    return found


def test_source_rejects_allocation_forms():
    for term, message in NOT_SOURCE:
        assert rejections(term) == {(ErrKind.LANG_VIOLATION, message, (2, 5))}, term


def test_source_rejects_partial_sigma():
    for f1, f2 in ((1, 0), (0, 1), (0, 0)):
        sigma = Sigma("x", UNIT_TY, f1, UNIT_TY, f2, pos=(2, 5))
        assert rejections(sigma) == {
            (ErrKind.LANG_VIOLATION, "partially initialized pair type in source", (2, 5))
        }, (f1, f2)


# ---------------------------------------------------------------------------
# Conversion

def test_equiv_beta():
    ctx = Context()
    redex = parse("(app (clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit)) unit)")
    assert equiv(ctx, redex, UNIT)


def test_equiv_delta():
    ctx = Context().extend("T", STAR, defn=UNIT_TY)
    assert equiv(ctx, Var("T"), UNIT_TY)
    assert subtype(ctx, Var("T"), UNIT_TY)


def test_subtype_universe_inclusion():
    ctx = Context()
    assert subtype(ctx, STAR, BOX)
    assert not subtype(ctx, BOX, STAR)
    # covariant codomain, invariant domain
    assert subtype(ctx, Pi("x", UNIT_TY, STAR), Pi("x", UNIT_TY, BOX))
    assert not subtype(ctx, Pi("x", STAR, STAR), Pi("x", BOX, BOX))


def test_normalize_projection():
    e = parse("(fst (pair unit Unit (Sigma (x Unit) Star)))")
    assert normalize(Context(), e) == UNIT


def test_normalize_renames_a_binder_away_from_the_binders_below_it():
    # y is defined, so the code type's env binder y is renamed; renaming it
    # to y1, its argument binder's name, made the result name the argument
    ctx = Context().extend("y", STAR, UNIT_TY)
    e = parse("(Code ((y Star) (y1 y)) y)")
    n = normalize(ctx, e)
    assert alpha_eq(n, e)
    assert n.env_binder not in (n.arg_binder, "y")


def test_check_against_supertype():
    check(Lang.SOURCE, Heap(), Context(), UNIT_TY, BOX)
    with pytest.raises(TypeCheckError):
        check(Lang.SOURCE, Heap(), Context(), UNIT, STAR)


# ---------------------------------------------------------------------------
# Machine

def test_step_rules_and_order():
    e = parse("(let (p (pair unit unit (Sigma (x Unit) Unit)) (Sigma (x Unit) Unit)) (snd p))")
    states = src_steps(e)
    rules = [r for _, r in states]
    assert rules == ["init", "let", "snd-pair"]
    assert states[-1][0] == UNIT


def test_app_clo_rule():
    e = parse("(app (clo (code ((n Unit) (x Unit)) n) unit (Pi (x Unit) Unit)) unit)")
    stepped, rule = src_step(e)
    assert rule == "app-clo"
    assert stepped == UNIT


def test_left_to_right_evaluation():
    e = parse(
        "(pair (let (x unit Unit) x) (let (y unit Unit) y) (Sigma (a Unit) Unit))"
    )
    first, rule = src_step(e)
    assert rule == "let"
    assert isinstance(first, Pair)
    assert first.fst == UNIT
    assert isinstance(first.snd, Let)


def test_values_do_not_step():
    for text in [
        "unit",
        "Unit",
        "(pair unit unit (Sigma (x Unit) Unit))",
        "(clo (code ((n Unit) (x Unit)) x) unit (Pi (x Unit) Unit))",
        "(Pi (x Unit) Unit)",
    ]:
        assert src_step(parse(text)) is None


def test_eval_and_stuck():
    assert src_eval(parse("(fst (pair unit unit (Sigma (x Unit) Unit)))")) == UNIT
    with pytest.raises(StuckError):
        src_eval(Var("x"))


def test_eval_fuel_exhaustion():
    e = parse("(let (a unit Unit) (let (b a Unit) (let (c b Unit) c)))")
    with pytest.raises(FuelExhausted):
        src_eval(e, fuel=1)


def test_trace_format():
    e = parse("(let (x unit Unit) x)")
    lines = src_trace(e)
    assert lines[0] == "STEP 0 | init | (let (x unit Unit) x) | -"
    assert lines[1] == "STEP 1 | let | unit | -"


def test_trace_is_printable_source(tmp_path):
    e = parse(open("corpus/eval_chain.src").read())
    for line in src_trace(e):
        term = line.split(" | ")[2]
        parse(term)  # every traced state is valid source syntax


def test_type_checker_error_rendering():
    try:
        src_infer(Context(), parse("(app unit unit)"))
    except TypeCheckError as err:
        assert err.render() == "error[NotAFunction] 1:6 application of a non-function"
