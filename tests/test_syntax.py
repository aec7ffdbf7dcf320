"""Core term structure: substitution, alpha-equivalence, contexts."""

import dataclasses
import itertools
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from dtalloc.alloc import translate
from dtalloc.conversion import Fuel, Normalizer, _Cmp, normalize
from dtalloc.harness import GenSpec, gen_lemma4, gen_typed
from dtalloc.heap import locs_in
from dtalloc.sexpr import Lang, parse, print_expr
from dtalloc.source import _VALUE_PARTS, is_src_value
from dtalloc.syntax import (
    App,
    Assign1,
    Assign2,
    BOX,
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
    STAR,
    Sigma,
    Snd,
    UNIT,
    UNIT_TY,
    UnitTm,
    UnitTy,
    Univ,
    Var,
    _CHILD_FIELDS,
    _SCHEMA,
    _all_names,
    _closed_subst,
    _free_vars,
    _heap_free,
    _known_closed,
    _psubst,
    alpha_eq,
    all_names,
    free_vars,
    fresh_name,
    heap_free,
    push_binder,
    subst,
    subst_many,
    subterms,
)
from dtalloc.target import tgt_steps


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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_memoized_name_analyses_match_the_uncached_helpers(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed))
    for s in subterms(e):
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


# each memoized analysis, its memo key, and the child fields it reads
_ANALYSES = [
    (free_vars, "_free_vars", _CHILD_FIELDS),
    (all_names, "_all_names", _CHILD_FIELDS),
    (heap_free, "_heap_free", _CHILD_FIELDS),
    (locs_in, "_locs", _CHILD_FIELDS),
    (is_src_value, "_src_value", _VALUE_PARTS),
]


def _fresh_copy(e):
    """A copy of e that shares no node with it, and so carries no memo key."""
    values = {f.name: getattr(e, f.name) for f in dataclasses.fields(e)}
    return type(e)(**{k: _fresh_copy(v) if isinstance(v, Expr) else v for k, v in values.items()})


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_memoize_analyses_a_node_over_analysed_children_as_the_walk_does(seed):
    _, e, _ = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
    # the machine states of the compiled term hold locations and allocations
    terms = [e] + [c.expr for c, _ in tgt_steps(translate(Context(), e))]
    for t in terms:
        for analysis, key, children in _ANALYSES:
            walked, direct = _fresh_copy(t), _fresh_copy(t)
            analysis(walked)
            for n in reversed(list(subterms(direct))):
                # every child is analysed first, so n takes the direct path
                kids = [getattr(n, f) for f in children.get(type(n), ())]
                assert all(key in k.__dict__ for k in kids)
                analysis(n)
            for w, d in zip(subterms(walked), subterms(direct), strict=True):
                if key in w.__dict__:
                    assert w.__dict__[key] == d.__dict__[key], (analysis, w)
            assert analysis(walked) == analysis(direct) == analysis(_fresh_copy(t))


def test_name_analyses_of_a_deep_term_stay_off_the_call_stack():
    e = Var("x")
    for i in range(5000):
        e = Pi(f"b{i % 7}", UNIT_TY, e)
    assert free_vars(e) == {"x"}
    assert all_names(e) == {"x"} | {f"b{i}" for i in range(7)}
    pairs = Loc(0)
    for _ in range(5000):
        pairs = Pair(pairs, UNIT, Sigma("a", UNIT_TY, 1, UNIT_TY, 1))
    assert all(key not in pairs.__dict__ for _, key, _ in _ANALYSES)
    assert heap_free(pairs) is False and locs_in(pairs) == {0}
    assert is_src_value(pairs) is False and free_vars(pairs) == set()
    assert all_names(pairs) == {"a"}


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


# ---------------------------------------------------------------------------
# The binder schema against a reference written out per node type


def test_schema_declares_every_node_type_and_each_field_once():
    assert set(_SCHEMA) == set(Expr.__subclasses__())
    for cls, (binders, children) in _SCHEMA.items():
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        assert all(types[b] == "Name" for b in binders), cls
        assert list(children) == [f for f, t in types.items() if t == "Expr"], cls
        # each child sees the binders before it in the layout, outermost first
        assert list(children.values()) == sorted(children.values()), cls
        assert set(children.values()) <= set(range(len(binders) + 1)), cls


def _db(e, env=(), repl=None, binders=False):
    """e with each bound variable printed as the distance to its binder and
    each free one as 'name, or as repl[name] when given; binder names
    appear, in brackets, only when binders is set."""

    def go(t, *bound):
        return _db(t, env + bound, repl, binders)

    def at(*names):
        return "".join(f"[{b}]" for b in names) if binders else ""

    match e:
        case Var(x):
            if x in env:
                return f"#{env[::-1].index(x)}"
            return repl[x] if repl and x in repl else f"'{x}"
        case Univ(u):
            return u.value
        case UnitTm():
            return "unit"
        case UnitTy():
            return "Unit"
        case Loc(i):
            return f"(loc {i})"
        case Let(b, bound, annot, body):
            return f"(let{at(b)} {go(bound)} {go(annot)} {go(body, b)})"
        case Code(n, envty, x, argty, body):
            return f"(code{at(n, x)} {go(envty)} {go(argty, n)} {go(body, n, x)})"
        case CodeTy(n, envty, x, argty, res):
            return f"(Code{at(n, x)} {go(envty)} {go(argty, n)} {go(res, n, x)})"
        case Clo(c, v, pi):
            return f"(clo {go(c)} {go(v)} {go(pi)})"
        case Pi(b, dom, cod):
            return f"(Pi{at(b)} {go(dom)} {go(cod, b)})"
        case App(f, a):
            return f"(app {go(f)} {go(a)})"
        case Pair(a, d, sigma):
            return f"(pair {go(a)} {go(d)} {go(sigma)})"
        case Sigma(b, dom, f1, cod, f2):
            return f"(Sigma{at(b)} {go(dom)} {f1} {go(cod, b)} {f2})"
        case Fst(inner):
            return f"(fst {go(inner)})"
        case Snd(inner):
            return f"(snd {go(inner)})"
        case Malloc(b, t1, t2):
            return f"(malloc{at(b)} {go(t1)} {go(t2, b)})"
        case Assign1(t, v):
            return f"(assign1 {go(t)} {go(v)})"
        case Assign2(t, v):
            return f"(assign2 {go(t)} {go(v)})"
        case CTag(inner):
            return f"(ctag {go(inner)})"
    raise TypeError(e)


# three names, so that code with equal binders, shadowing and capture are common
_NAMES = st.sampled_from(["x", "n", "y"])
_FLAGS = st.integers(0, 1)
_LEAVES = st.one_of(
    st.builds(Var, _NAMES),
    st.sampled_from([STAR, BOX, UNIT, UNIT_TY]),
    st.builds(Loc, st.integers(0, 2)),
)


def _nodes(t):
    return st.one_of(
        st.builds(Let, _NAMES, t, t, t),
        st.builds(Code, _NAMES, t, _NAMES, t, t),
        st.builds(CodeTy, _NAMES, t, _NAMES, t, t),
        st.builds(Clo, t, t, t),
        st.builds(Pi, _NAMES, t, t),
        st.builds(App, t, t),
        st.builds(Pair, t, t, t),
        st.builds(Sigma, _NAMES, t, _FLAGS, t, _FLAGS),
        st.builds(Fst, t),
        st.builds(Snd, t),
        st.builds(Malloc, _NAMES, t, t),
        st.builds(Assign1, t, t),
        st.builds(Assign2, t, t),
        st.builds(CTag, t),
    )


TERMS = st.recursive(_LEAVES, _nodes, max_leaves=12)
SMALL_TERMS = st.recursive(_LEAVES, _nodes, max_leaves=3)


def _names_in(printed):
    return {a or b for a, b in re.findall(r"'(\w+)|\[(\w+)\]", printed)}


@settings(max_examples=300, deadline=None)
@given(TERMS)
def test_name_analyses_match_the_de_bruijn_reference(e):
    assert free_vars(e) == _names_in(_db(e))
    assert all_names(e) == _names_in(_db(e, binders=True))


@settings(max_examples=300, deadline=None)
@given(TERMS, SMALL_TERMS, _NAMES, SMALL_TERMS)
def test_substitution_matches_the_de_bruijn_reference(e, v, x, w):
    # free names print as themselves at any depth, so the reference
    # substitutes by printing the replacement in place, with no shifting
    assert _db(subst(e, v, x)) == _db(e, repl={x: _db(v)})
    other = "y" if x != "y" else "n"
    assert _db(subst_many(e, {x: v, other: w})) == _db(e, repl={x: _db(v), other: _db(w)})


def same_nodes(a, b):
    """Whether a and b are the same tree node for node: node types, binder
    and data fields, and positions, which equality does not compare."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        children = _CHILD_FIELDS[type(x)]
        for f in dataclasses.fields(x):
            if f.name in children:
                todo.append((getattr(x, f.name), getattr(y, f.name)))
            elif getattr(x, f.name) != getattr(y, f.name):
                return False
    return True


def _positioned(e, at):
    """A copy of e with a position of its own, drawn from at, on every node."""
    args = {f.name: getattr(e, f.name) for f in dataclasses.fields(e)}
    for f in _CHILD_FIELDS[type(e)]:
        args[f] = _positioned(args[f], at)
    args["pos"] = (next(at), 0)
    return type(e)(**args)


# each binding form with the substituted name as one binder, g the name of
# any other binder, at each binder depth: the children before the binder
# see the substituted name, those after it do not
_SHADOWING = [
    lambda x, g, t: Let(x, t, t, t),
    lambda x, g, t: Code(x, t, g, t, t),
    lambda x, g, t: Code(g, t, x, t, t),
    lambda x, g, t: Pi(x, t, t),
    lambda x, g, t: Sigma(x, t, 0, t, 1),
    lambda x, g, t: Malloc(x, t, t),
]
CLOSED_TERMS = SMALL_TERMS.filter(lambda v: not free_vars(v))


@settings(max_examples=100, deadline=None)
@given(TERMS, CLOSED_TERMS, _NAMES, CLOSED_TERMS)
def test_closed_substitution_matches_psubst_and_the_de_bruijn_reference(e, v, x, w):
    other = "y" if x != "y" else "n"
    # the name is free both inside and outside each shadowing binder
    t = App(e, Var(x))
    terms = [e, t] + [shadow(x, other, t) for shadow in _SHADOWING]
    for sub in ({x: v}, {x: v, other: w}):
        assert all(map(_known_closed, sub.values()))
        for term in terms:
            term = _positioned(term, itertools.count(1))
            got, want = _closed_subst(term, dict(sub)), _psubst(term, dict(sub))
            assert same_nodes(got, want)
            assert (got is term) == (want is term)
            assert _db(got) == _db(term, repl={k: _db(u) for k, u in sub.items()})
            assert same_nodes(subst_many(term, sub), want)


@settings(max_examples=300, deadline=None)
@given(SMALL_TERMS, SMALL_TERMS)
def test_alpha_eq_matches_the_de_bruijn_reference(a, b):
    assert alpha_eq(a, b) == (_db(a) == _db(b))


@settings(max_examples=300, deadline=None)
@given(TERMS, _NAMES)
def test_alpha_eq_matches_the_reference_on_a_renamed_binder(e, name):
    # the renamed copy shares every child with e, so the comparison meets
    # the same objects on both sides, bound differently or alike
    nodes = [s for s in subterms(e) if _SCHEMA[type(s)][0]]
    for s in nodes[:4]:
        for b in _SCHEMA[type(s)][0]:
            renamed = dataclasses.replace(s, **{b: name})
            assert alpha_eq(s, renamed) == (_db(s) == _db(renamed))


def _rename_occurrence(e, target, name):
    """e with the variable node target, found by identity, renamed; the
    nodes off its path are shared with e."""
    if e is target:
        return Var(name)
    kids = {f: _rename_occurrence(getattr(e, f), target, name) for f in _CHILD_FIELDS[type(e)]}
    return dataclasses.replace(e, **kids) if kids else e


@settings(max_examples=300, deadline=None)
@given(TERMS, st.data())
def test_alpha_eq_matches_the_reference_on_a_renamed_occurrence(e, data):
    # the two sides differ in one variable, often only in which binder it
    # refers to
    occurrences = [s for s in subterms(e) if isinstance(s, Var)]
    assume(occurrences)
    target = data.draw(st.sampled_from(occurrences))
    renamed = _rename_occurrence(e, target, data.draw(_NAMES))
    assert alpha_eq(e, renamed) == (_db(e) == _db(renamed))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_conversion_compares_heap_free_normal_forms_as_alpha_eq_does(seed1, seed2):
    forms = []
    for seed in (seed1, seed2):
        _, e, ty = gen_typed(GenSpec(depth=3, seed=seed, closed=True))
        for t in (e, ty, parse(print_expr(e))):
            forms.append(normalize(Context(), t))
    for a in forms:
        for b in forms:
            assert heap_free(a) and heap_free(b)
            fuel = Fuel()
            cmp = _Cmp(Normalizer({}, None, fuel), Normalizer({}, None, fuel), fuel)
            assert cmp.eq(a, b, {}, {}, 0) == alpha_eq(a, b) == (_db(a) == _db(b))
