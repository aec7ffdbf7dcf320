"""Core term structure: substitution, alpha-equivalence, contexts."""

import pytest
from hypothesis import given, settings, strategies as st

from dtalloc.harness import GenSpec, gen_lemma4, gen_typed
from dtalloc.sexpr import Lang, parse, print_expr
from dtalloc.syntax import (
    App,
    BOX,
    Code,
    CodeTy,
    Context,
    Fst,
    Let,
    Loc,
    Pair,
    Pi,
    STAR,
    Sigma,
    UNIT,
    UNIT_TY,
    Var,
    _CHILD_FIELDS,
    _all_names,
    _free_vars,
    _heap_free,
    alpha_eq,
    all_names,
    free_vars,
    fresh_name,
    heap_free,
    push_binder,
    subst,
    subst_many,
)


def test_fresh_name_picks_least_unused_suffix():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1", "x3"}) == "x2"


def test_free_vars_binding_structure():
    e = Pi("x", Var("a"), App(Var("x"), Var("b")))
    assert free_vars(e) == {"a", "b"}
    # in code the env binder scopes over the argument type and the body
    c = Code("n", UNIT_TY, "x", Var("n"), App(Var("n"), Var("x")))
    assert free_vars(c) == set()
    c2 = Code("n", Var("outer"), "x", UNIT_TY, Var("x"))
    assert free_vars(c2) == {"outer"}


def test_free_vars_sigma_and_let():
    s = Sigma("x", Var("a"), 1, Var("x"), 1)
    assert free_vars(s) == {"a"}
    l = Let("x", Var("a"), UNIT_TY, Var("x"))
    assert free_vars(l) == {"a"}


def test_subst_avoids_capture():
    # [y/x] under a binder named y must rename the binder
    e = Pi("y", UNIT_TY, App(Var("x"), Var("y")))
    r = subst(e, Var("y"), "x")
    assert isinstance(r, Pi)
    assert r.binder != "y"
    assert alpha_eq(r, Pi("z", UNIT_TY, App(Var("y"), Var("z"))))


def test_subst_shadowed_binder_left_alone():
    e = Let("x", Var("x"), UNIT_TY, Var("x"))
    r = subst(e, UNIT, "x")
    # the bound occurrence is the outer x; the body one is the inner
    assert r == Let("x", UNIT, UNIT_TY, Var("x"))


def test_subst_code_arg_shadows_env_binder():
    # when both binders share a name the arg type is still under the env
    c = Code("n", UNIT_TY, "n", Var("n"), Var("n"))
    r = subst(c, UNIT, "n")
    assert r == c


def test_subst_many_is_simultaneous():
    e = App(Var("x"), Var("y"))
    r = subst_many(e, {"x": Var("y"), "y": Var("x")})
    assert r == App(Var("y"), Var("x"))


def test_alpha_eq_basic():
    assert alpha_eq(Pi("x", UNIT_TY, Var("x")), Pi("y", UNIT_TY, Var("y")))
    assert not alpha_eq(Pi("x", UNIT_TY, Var("x")), Pi("y", UNIT_TY, UNIT_TY))
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(STAR, STAR)
    assert not alpha_eq(STAR, BOX)


def test_alpha_eq_shared_subterm_bound_on_one_side_only():
    # one codomain object, bound by the left binder and free on the right
    v = Var("x")
    assert not alpha_eq(Pi("x", UNIT_TY, v), Pi("y", UNIT_TY, v))
    assert not alpha_eq(Pi("y", UNIT_TY, v), Pi("x", UNIT_TY, v))
    assert alpha_eq(Pi("y", UNIT_TY, v), Pi("z", UNIT_TY, v))
    assert alpha_eq(Pi("x", UNIT_TY, v), Pi("x", UNIT_TY, v))


def test_heap_free_sees_locations_and_allocation_anywhere_below():
    text = "(let (p (Sigma (x Unit 1) (Unit 0)) Star) (Pi (a p) Unit))"
    assert heap_free(parse(text, Lang.TARGET))
    for text in (
        "(Pi (a Unit) (fst (malloc (x Unit) Unit)))",
        "(let (p (assign1 q unit) Unit) Unit)",
        "(Sigma (a Unit 1) ((assign2 q unit) 1))",
    ):
        assert not heap_free(parse(text, Lang.TARGET)), text
    assert not heap_free(Pi("a", UNIT_TY, Fst(Loc(0))))


def test_alpha_eq_ignores_positions():
    assert Var("x", pos=(1, 1)) == Var("x", pos=(9, 9))
    assert alpha_eq(Var("x", pos=(1, 1)), Var("x", pos=(9, 9)))


def test_sigma_flag_validation():
    with pytest.raises(ValueError):
        Sigma("x", UNIT_TY, 2, UNIT_TY, 0)


def test_context_lookup_innermost_wins():
    ctx = Context().extend("x", UNIT_TY).extend("x", STAR)
    assert ctx.lookup("x").ty == STAR
    assert ctx.lookup("missing") is None


def test_context_defs_shadowing():
    ctx = Context().extend("x", UNIT_TY, defn=UNIT).extend("x", STAR)
    # the undefined inner entry hides the outer definition
    assert "x" not in ctx.defs()
    ctx2 = Context().extend("x", UNIT_TY).extend("x", STAR, defn=UNIT_TY)
    assert ctx2.defs()["x"] == UNIT_TY


def test_push_binder_freshens():
    ctx = Context().extend("x", UNIT_TY)
    ctx2, name = push_binder(ctx, "x", STAR)
    assert name == "x1"
    assert len(ctx2) == 2
    assert ctx2.lookup("x").ty == UNIT_TY
    assert ctx2.lookup("x1").ty == STAR


def test_all_names_includes_binders():
    e = Let("x", UNIT, UNIT_TY, Pi("y", UNIT_TY, Var("z")))
    assert all_names(e) >= {"x", "y", "z"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_alpha_eq_reflexive_on_generated_terms(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
    assert alpha_eq(e, e)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_subst_of_fresh_var_is_identity(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
    fresh = fresh_name("q", all_names(e))
    assert alpha_eq(subst(e, UNIT, fresh), e)


def test_codety_alpha_eq_with_renamed_binders():
    a = CodeTy("n", UNIT_TY, "x", UNIT_TY, Sigma("y", UNIT_TY, 1, UNIT_TY, 1))
    b = CodeTy("m", UNIT_TY, "z", UNIT_TY, Sigma("w", UNIT_TY, 1, UNIT_TY, 1))
    assert alpha_eq(a, b)


def test_pair_and_projections_structural():
    s = Sigma("x", UNIT_TY, 1, UNIT_TY, 1)
    p = Pair(UNIT, UNIT, s)
    assert Fst(p) == Fst(Pair(UNIT, UNIT, s))


# ---------------------------------------------------------------------------
# Memoized name analyses and sharing substitution


def _children(e):
    return [getattr(e, f) for f in _CHILD_FIELDS[type(e)]]


def _subterms(e):
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(_children(n))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_memoized_name_analyses_match_the_uncached_helpers(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed))
    for s in _subterms(e):
        fv, names = free_vars(s), all_names(s)
        assert type(fv) is frozenset and type(names) is frozenset
        assert fv == _free_vars(s) and names == _all_names(s)
        assert free_vars(s) is fv and all_names(s) is names
        assert heap_free(s) is _heap_free(s) is True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cached_node_equals_and_hashes_like_a_fresh_parse(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
    free_vars(e), all_names(e)
    fresh = parse(print_expr(e))
    assert "_free_vars" not in fresh.__dict__ and "_all_names" not in fresh.__dict__
    assert e == fresh and fresh == e
    assert hash(e) == hash(fresh)
    assert repr(e) == repr(fresh)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_subst_returns_the_term_itself_when_the_name_is_not_free(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed))
    bound_only = sorted(all_names(e) - free_vars(e))
    for x in bound_only + [fresh_name("q", all_names(e))]:
        assert subst(e, UNIT, x) is e
    for x in sorted(free_vars(e)):
        assert subst(e, Var(x), x) is e


def test_name_analyses_of_a_deep_term_stay_off_the_call_stack():
    e = Var("x")
    for i in range(5000):
        e = Pi(f"b{i % 7}", UNIT_TY, e)
    assert free_vars(e) == {"x"}
    assert all_names(e) == {"x"} | {f"b{i}" for i in range(7)}


def _assert_positions_kept(before, after):
    if isinstance(before, Var):
        return  # a replaced or renamed occurrence
    assert type(after) is type(before)
    assert before.pos is not None and after.pos == before.pos
    for b, a in zip(_children(before), _children(after), strict=True):
        _assert_positions_kept(b, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_substitution_keeps_the_positions_of_rebuilt_nodes(seed):
    _, x, _, e, v = gen_lemma4(GenSpec(depth=3, seed=seed))
    e = parse(print_expr(e))
    _assert_positions_kept(e, subst(e, v, x))


def test_substitution_rebuilds_only_the_path_to_the_variable():
    e = parse("(let (a unit Unit) (pair xs a (Sigma (w Unit) Unit)))")
    r = subst(e, UNIT, "xs")
    assert r == Let("a", UNIT, UNIT_TY, Pair(UNIT, Var("a"), Sigma("w", UNIT_TY, 1, UNIT_TY, 1)))
    assert r.pos == e.pos == (1, 1) and r.body.pos == e.body.pos
    assert r.bound is e.bound and r.annot is e.annot
    assert r.body.snd is e.body.snd and r.body.annot_sigma is e.body.annot_sigma
