"""The shared refocusing machine against its one-step reference.

The one-step functions (`src_step`, `tgt_step`) take one contraction from
the root, so applying them until the term is a value is the machine's
defining semantics. `*_eval` and `*_steps` continue from each contractum
on an explicit stack instead; these tests check that they take the same
steps, stop at the same budget and get stuck with the same message.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtalloc.alloc import translate
from dtalloc.errors import FuelExhausted, StuckError
from dtalloc.harness import GenSpec, gen_typed
from dtalloc.heap import UNINIT, Config, Heap, HeapCell
from dtalloc.sexpr import Lang, parse
from dtalloc.source import src_eval, src_step, src_steps
from dtalloc.syntax import (
    UNIT,
    UNIT_TY,
    App,
    Clo,
    Code,
    Context,
    Fst,
    Let,
    Loc,
    Pair,
    Sigma,
    Snd,
    Var,
)
from dtalloc.target import tgt_eval, tgt_step, tgt_steps

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
NEGATIVE = CORPUS / "negative"

SOURCE = (src_step, src_steps, src_eval)
TARGET = (tgt_step, tgt_steps, tgt_eval)


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
    step, steps, run = machine
    ref, stuck = _iterate(step, start)
    if stuck is None:
        # states compare by final expression and, in the target, heap cells
        assert steps(start) == ref
        assert run(start) == ref[-1][0]
    else:
        for f in (steps, run):
            with pytest.raises(StuckError) as err:
                f(start)
            assert str(err.value) == stuck
    n = len(ref) - 1
    if n >= 1:
        for f in (steps, run):
            with pytest.raises(FuelExhausted) as err:
                f(start, n - 1)
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


HALF_FILLED = Heap((HeapCell(Sigma("x", UNIT_TY, 1, UNIT_TY, 0), UNIT, UNINIT),))


@pytest.mark.parametrize(
    "config, message",
    [
        (Config(HALF_FILLED, Snd(Loc(0))), "second slot is uninitialized"),
        (Config(HALF_FILLED, Let("p", Loc(0), UNIT_TY, Snd(Var("p")))),
         "second slot is uninitialized"),
        (Config(Heap(), Fst(Loc(3))), "projection through a dangling location"),
        (Config(Heap(), App(UNIT, UNIT)), "cannot apply UnitTm"),
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
    ],
)
def test_stuck_source_terms(e, message):
    assert _assert_agrees(SOURCE, e)[1] == message


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
