"""The shared refocusing machine against its one-step reference.

The one-step functions (`src_step`, `tgt_step`) take the first step of a
run from the state they are given, found by refocusing from its root, so
applying them until the term is a value is the machine's defining
semantics. A traced run (`*_steps`) goes on from each contractum instead,
popping the frames it has just plugged, and keeps each step's record; an
untraced run (`*_eval`) goes on from each contractum without records.
These tests check that they take the same steps, stop at the same budget
and get stuck with the same message, and that each record names objects
of the state it was taken from: the frames and the redex that refocusing
that state from its root finds.
`*_eval`, untraced, keeps let-bound values in an environment where
`*_steps` substitutes them; the last tests check that both end alike,
and an untraced run that meets an open term ends as its traced run.
"""

from pathlib import Path

import pytest
from families import FAMILIES
from hypothesis import given, settings
from hypothesis import strategies as st
from records import plug
from test_harness import _let_substitutes_unit

from dtalloc import target
from dtalloc.alloc import translate
from dtalloc.conversion import DEFAULT_FUEL, equiv
from dtalloc.errors import FuelExhausted, StuckError
from dtalloc.harness import GenSpec, gen_typed
from dtalloc.heap import Config, Heap
from dtalloc.machine import _close, _Open
from dtalloc.sexpr import Lang, ParseError, parse
from dtalloc.source import src_eval, src_step, src_steps
from dtalloc.syntax import (
    UNIT,
    UNIT_TY,
    App,
    Assign1,
    Assign2,
    Clo,
    Code,
    Context,
    CTag,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Snd,
    Var,
    free_vars,
)
from dtalloc.target import tgt_eval, tgt_step, tgt_steps

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
NEGATIVE = CORPUS / "negative"

def _empty_heap_term(config):
    """The term of a target start state; runs start from the empty heap."""
    assert config.heap == Heap(), config
    return config.expr


# (one step from a state, full run, final state, the term a run takes
# for a start state)
SOURCE = (src_step, src_steps, src_eval, lambda e: e)
TARGET = (tgt_step, tgt_steps, tgt_eval, _empty_heap_term)


def _iterate(step, start):
    """The reference run: the one-step function applied from the root until
    it returns None. Returns the states with their rules, and the StuckError
    message if the run got stuck."""
    states = [(start, "init")]
    while True:
        try:
            r = step(states[-1][0])
        except StuckError as err:
            return states, str(err)
        if r is None:
            return states, None
        states.append(r)


def _assert_agrees(machine, start):
    step, steps, run, term_of = machine
    ref, stuck = _iterate(step, start)
    e = term_of(start)
    if stuck is None:
        # states compare by final expression and, in the target, heap cells
        assert steps(e) == ref
        assert run(e) == ref[-1][0]
    else:
        for f in (steps, run):
            with pytest.raises(StuckError) as err:
                f(e)
            assert str(err.value) == stuck
    n = len(ref) - 1
    if n >= 1:
        for f in (steps, run):
            with pytest.raises(FuelExhausted) as err:
                f(e, n - 1)
            assert err.value.limit == n - 1
    return ref, stuck


def _compiled(e):
    return Config(Heap(), translate(Context(), e))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), depth=st.integers(1, 5))
def test_generated_programs_run_as_stepping_from_the_root(seed, depth):
    _, e, _ = gen_typed(GenSpec(depth=depth, seed=seed, closed=True))
    assert _assert_agrees(SOURCE, e)[1] is None
    assert _assert_agrees(TARGET, _compiled(e))[1] is None


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.src")), ids=lambda p: p.stem)
def test_corpus_programs_run_as_stepping_from_the_root(path):
    e = parse(path.read_text(), Lang.SOURCE)
    assert _assert_agrees(SOURCE, e)[1] is None
    assert _assert_agrees(TARGET, _compiled(e))[1] is None


@pytest.mark.parametrize("path", sorted(NEGATIVE.glob("*.tgt")), ids=lambda p: p.stem)
def test_target_negatives_run_as_stepping_from_the_root(path):
    _assert_agrees(TARGET, Config(Heap(), parse(path.read_text(), Lang.TARGET)))


# a tuple with its first slot written, and a full one whose first slot is
# not code
HALF_FILLED = Assign1(Malloc("x", UNIT_TY, UNIT_TY), UNIT)
FILLED = Assign2(HALF_FILLED, UNIT)


@pytest.mark.parametrize(
    "config, message",
    [
        (Config(Heap(), Snd(HALF_FILLED)), "second slot is uninitialized"),
        (Config(Heap(), Let("p", HALF_FILLED, UNIT_TY, Snd(Var("p")))),
         "second slot is uninitialized"),
        (Config(Heap(), Fst(Loc(3))), "projection through a dangling location"),
        (Config(Heap(), App(UNIT, UNIT)), "cannot apply UnitTm"),
        (Config(Heap(), App(CTag(Loc(3)), UNIT)), "application through a dangling location"),
        (Config(Heap(), Assign1(Loc(3), UNIT)), "assignment through a dangling location"),
        (Config(Heap(), App(CTag(HALF_FILLED), UNIT)),
         "application through a partly initialized tuple"),
        (Config(Heap(), App(CTag(FILLED), UNIT)), "tagged tuple does not hold code"),
        (Config(Heap(), Assign1(UNIT, UNIT)), "assignment to a non-tuple value"),
        (Config(Heap(), CTag(UNIT)), "ctag of a non-tuple value"),
        (Config(Heap(), Snd(UNIT)), "second projection of a non-tuple value"),
    ],
)
def test_stuck_target_terms(config, message):
    assert _assert_agrees(TARGET, config)[1] == message


@pytest.mark.parametrize(
    "e, message",
    [
        (Fst(UNIT), "first projection of a non-pair value"),
        (Let("y", UNIT, UNIT_TY, Snd(Var("y"))), "second projection of a non-pair value"),
        (Pair(UNIT, Var("z"), UNIT_TY), "free variable 'z' cannot step"),
        (Loc(0), "Loc cannot step in the source machine"),
        (Clo(UNIT, UNIT, UNIT_TY), "closure over a non-code value"),
        # foreign forms: the source machine allocates nothing
        (Malloc("x", UNIT_TY, UNIT_TY), "Malloc cannot step in the source machine"),
        (Assign1(Loc(0), UNIT), "Assign1 cannot step in the source machine"),
        (App(CTag(Loc(0)), UNIT), "CTag cannot step in the source machine"),
    ],
)
def test_stuck_source_terms(e, message):
    assert _assert_agrees(SOURCE, e)[1] == message


def _assert_steps_convert(e):
    """Every step of e and of its compiled program relates its two states
    by conversion; a target step is judged under the heap after it, so an
    assignment converts by the replay rule."""
    states = [s for s, _ in src_steps(e)]
    for s, s2 in zip(states, states[1:]):
        assert equiv(Context(), s, s2), (s, s2)
    configs = [c for c, _ in tgt_steps(translate(Context(), e))]
    for c, c2 in zip(configs, configs[1:]):
        assert equiv(Context(), c.expr, c2.expr, c2.heap), (c, c2)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.src")), ids=lambda p: p.stem)
def test_corpus_steps_are_conversions(path):
    _assert_steps_convert(parse(path.read_text(), Lang.SOURCE))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), depth=st.integers(1, 5))
def test_generated_steps_are_conversions(seed, depth):
    _assert_steps_convert(gen_typed(GenSpec(depth=depth, seed=seed, closed=True))[1])


def _records(e):
    """The records of the traced target run of e from the empty heap, as
    far as the run goes before it ends, gets stuck or runs out of fuel."""
    out = []
    try:
        for r in target._MACHINE.steps(Heap(), e, DEFAULT_FUEL):
            out.append(r)
    except (StuckError, FuelExhausted):
        pass
    return out


def test_each_traced_state_records_its_step_in_the_state_before():
    compiled = [parse(p.read_text(), Lang.SOURCE) for p in sorted(CORPUS.glob("*.src"))]
    compiled += [parse(FAMILIES[f](n)) for f in sorted(FAMILIES) for n in range(1, 9)]
    compiled = [translate(Context(), e) for e in compiled]
    negative = [parse(p.read_text(), Lang.TARGET) for p in sorted(NEGATIVE.iterdir())]
    for e in compiled + negative:
        prev = e
        for _, term, _, frames, redex, contractum in _records(e):
            # the frames' nodes, then the redex: objects of the state
            # before, each in the hole of the frame above it
            nodes = [node for node, _, _ in frames] + [redex]
            assert nodes[0] is prev
            for (node, hole, _), below in zip(frames, nodes[1:]):
                assert getattr(node, hole) is below
            # and those refocusing the state before from its root finds
            fresh = []
            assert target._MACHINE._refocus(prev, fresh) == (redex, True)
            assert fresh == frames
            assert term == plug(frames, contractum)
            # the state holds the contractum itself at the end of the holes
            at = term
            for _, hole, _ in frames:
                at = getattr(at, hole)
            assert at is contractum
            prev = term
    for e in compiled:
        states = tgt_steps(e)
        assert states[0][0].step is None
        assert [(c.expr, c.step) for c, _ in states[1:]] == [
            (t, (frames, redex, c)) for _, t, _, frames, redex, c in _records(e)]


def _lets_in_bound(n):
    """(let (x (let (x ... unit ...) Unit) x) Unit) x), n lets deep."""
    e = UNIT
    for _ in range(n):
        e = Let("x", e, UNIT_TY, Var("x"))
    return e


def test_evaluation_position_nesting_5000_deep():
    # stepping from the root recursed once per level
    deep = _lets_in_bound(5000)
    assert src_eval(deep) == UNIT
    final = tgt_eval(deep)
    assert final.expr == UNIT and final.heap == Heap()


def test_source_values_5000_deep():
    # the value tests of nested pairs and closures are kept per node and
    # filled without recursion, not recomputed per level
    e = Let("x", UNIT, UNIT_TY, Var("x"))
    for _ in range(5000):
        e = Fst(Pair(e, UNIT, UNIT_TY))
    assert src_eval(e) == UNIT
    e = UNIT
    for _ in range(5000):
        e = Pair(e, Let("x", UNIT, UNIT_TY, Var("x")), UNIT_TY)
    value = src_eval(e, fuel=5000)
    assert value.snd == UNIT and value.fst.snd == UNIT
    with pytest.raises(FuelExhausted):
        src_eval(e, fuel=4999)
    code = Code("n", UNIT_TY, "x", UNIT_TY, Var("x"))
    env = UNIT
    for _ in range(5000):
        env = Clo(code, env, UNIT_TY)
    assert src_steps(App(env, UNIT))[1:] == [(UNIT, "app-clo")]


def test_plugged_nodes_keep_their_positions():
    e = parse("(pair (let (x unit Unit) x) unit (Sigma (a Unit) Unit))", Lang.SOURCE)
    (_, _), (stepped, rule) = src_steps(e)
    assert rule == "let" and stepped.pos == e.pos
    assert src_eval(e).pos == e.pos


def test_a_step_that_leaves_the_heap_keeps_the_heap_object():
    e = parse("(let (p (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0))) p)", Lang.TARGET)
    (start, _), (after_malloc, r1), (after_let, r2) = tgt_steps(e)
    assert (r1, r2) == ("malloc", "let")
    assert after_malloc.heap is not start.heap
    assert after_let.heap is after_malloc.heap


# ---------------------------------------------------------------------------
# Untraced runs end in the last state of traced runs


@pytest.fixture
def restarts(monkeypatch):
    """A list that grows by the open term that left its environment, once
    for every untraced run that starts again substituting."""
    seen = []

    def counted(e, env):
        try:
            return _close(e, env)
        except _Open:
            seen.append(e)
            raise

    monkeypatch.setattr("dtalloc.machine._close", counted)
    return seen


def _outcome(run, e, fuel):
    """What run(e, fuel) returns, or the class and message of its error."""
    try:
        return run(e, fuel)
    except (StuckError, FuelExhausted) as err:
        return type(err), str(err)


def _assert_ends_alike(machine, e, fuel):
    """The untraced run of e returns the last state of the traced run, heap
    and value, or raises the same error; returns that outcome."""
    _, steps, run, _ = machine
    traced = _outcome(lambda e, fuel: steps(e, fuel)[-1][0], e, fuel)
    assert _outcome(run, e, fuel) == traced, fuel
    return traced


def _assert_untraced_agrees(machine, e, every_budget=False):
    """Runs of e end alike at full fuel and, with every_budget, at each
    budget from 0 up to the first that does not run out, the step count."""
    _assert_ends_alike(machine, e, DEFAULT_FUEL)
    fuel = 0
    while every_budget:
        end = _assert_ends_alike(machine, e, fuel)
        every_budget = isinstance(end, tuple) and end[0] is FuelExhausted
        fuel += 1


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.src")), ids=lambda p: p.stem)
def test_untraced_runs_agree_with_traced_runs_on_the_corpus(path, restarts):
    e = parse(path.read_text(), Lang.SOURCE)
    _assert_untraced_agrees(SOURCE, e, every_budget=True)
    _assert_untraced_agrees(TARGET, _compiled(e).expr, every_budget=True)
    assert restarts == []


@pytest.mark.parametrize("path", sorted(NEGATIVE.iterdir()), ids=lambda p: p.name)
def test_untraced_runs_agree_with_traced_runs_on_negative_files(path):
    # every negative file reads as a target program; source files other
    # than the two that use target syntax also read as source programs
    text = path.read_text()
    _assert_untraced_agrees(TARGET, parse(text, Lang.TARGET), every_budget=True)
    try:
        e = parse(text, Lang.SOURCE)
    except ParseError:
        assert path.suffix == ".tgt" or path.stem in ("flagged_sigma", "target_syntax")
        return
    _assert_untraced_agrees(SOURCE, e, every_budget=True)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_untraced_runs_agree_with_traced_runs_on_the_families(family, restarts):
    for n in range(1, 13):
        e = parse(FAMILIES[family](n))
        _assert_untraced_agrees(SOURCE, e, every_budget=n <= 3)
        _assert_untraced_agrees(TARGET, _compiled(e).expr, every_budget=n <= 3)
    assert restarts == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), depth=st.integers(1, 5), fuel=st.integers(0, 40))
def test_untraced_runs_agree_with_traced_runs_on_generated_programs(seed, depth, fuel):
    _, e, _ = gen_typed(GenSpec(depth=depth, seed=seed, closed=True))
    for machine, term in ((SOURCE, e), (TARGET, _compiled(e).expr)):
        _assert_untraced_agrees(machine, term)
        _assert_ends_alike(machine, term, fuel)


# terms whose untraced runs use each part of the environment, in order: a
# bound value names a binding that a later let shadows; a value that names
# a binding leaves its scope, into a shadowed binding's; a shadowed
# binding comes back; a value leaves two scopes; a closure is bound and
# applied; the final value names a binding; a redex's types name one; a
# bound inner let shadows the tuple written after it; an open program
# stores a value whose free name a later let binds; and two open programs
# bind a value whose free name a later let binds, one into an empty
# environment and one into an environment emptied by an undo
ENVIRONMENT_CASES = [
    (Lang.SOURCE, "(let (x Unit Star) (let (y (Pi (a x) x) Star) "
                  "(let (x (Pi (b Unit) Unit) Star) y)))"),
    (Lang.SOURCE, "(let (T (Pi (c Unit) Unit) Star) "
                  "(pair (let (T Unit Star) (Pi (x T) T)) T (Sigma (a Star) Star)))"),
    (Lang.SOURCE, "(let (x unit Unit) (pair (let (x Unit Star) x) x (Sigma (a Star) Unit)))"),
    (Lang.SOURCE, "(fst (pair (let (a unit Unit) (let (b Unit Star) (pair a b "
                  "(Sigma (x Unit) Star)))) unit (Sigma (p (Sigma (x Unit) Star)) Unit)))"),
    (Lang.SOURCE, "(let (f (clo (code ((e Unit) (x Unit)) x) unit (Pi (x Unit) Unit)) "
                  "(Pi (x Unit) Unit)) (app f unit))"),
    (Lang.SOURCE, "(let (T Unit Star) (clo (code ((e Star) (x e)) x) T (Pi (x T) T)))"),
    (Lang.TARGET, "(let (T Unit Star) (let (p (malloc (a T) T) (Sigma (a T 0) (T 0))) "
                  "(assign1 p unit)))"),
    (Lang.TARGET, "(let (p (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0))) "
                  "(let (q (let (p unit Unit) p) Unit) (assign1 p q)))"),
    (Lang.TARGET, "(let (p (malloc (a Star) Unit) (Sigma (a Star 0) (Unit 0))) "
                  "(let (p1 (assign1 p (Pi (b y) Unit)) (Sigma (a Star 1) (Unit 0))) "
                  "(let (y Unit Star) (let (z (fst p1) Star) z))))"),
    (Lang.SOURCE, "(let (x (Pi (a y) Unit) Star) (let (y Unit Star) x))"),
    (Lang.SOURCE, "(app (let (w Unit Star) (clo (code ((e Unit) (v Star)) v) unit "
                  "(Pi (v Star) Star))) (let (x (Pi (a y) Unit) Star) (let (y Unit Star) x)))"),
]


@pytest.mark.parametrize("lang, text", ENVIRONMENT_CASES)
def test_untraced_runs_agree_with_traced_runs_where_the_environment_matters(
    lang, text, restarts
):
    e = parse(text, lang)
    if lang is Lang.SOURCE:
        _assert_untraced_agrees(SOURCE, e, every_budget=True)
        e = _compiled(e).expr
    _assert_untraced_agrees(TARGET, e, every_budget=True)
    # only the open programs start again, where an open value leaves or is bound
    assert bool(restarts) == bool(free_vars(e)), restarts


def test_untraced_agreement_sees_a_let_rule_broken_in_contract(monkeypatch):
    # untraced runs do not contract lets through machine.contract, so only
    # the traced run takes a broken let rule; terms are built after the swap
    monkeypatch.setattr("dtalloc.machine.contract", _let_substitutes_unit)
    e = parse((CORPUS / "pair_nested.src").read_text(), Lang.SOURCE)
    with pytest.raises(AssertionError):
        _assert_untraced_agrees(TARGET, _compiled(e).expr)
