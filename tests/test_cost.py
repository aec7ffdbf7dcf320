"""Work counts that guard against super-linear growth in the checkers.

Each test counts calls of an uncached helper (the name analysis, which
walks one node, the sort inference behind target._sort_of, the
normalizer's step, the machine's value test, or the model's step)
instead of timing anything, so it gives the same answer on any machine.
"""

from dataclasses import replace

import pytest

from dtalloc import conversion, model, syntax, target
from dtalloc.alloc import translate
from dtalloc.conversion import normalize
from dtalloc.harness import check_step_preservation
from dtalloc.heap import Heap
from dtalloc.sexpr import parse
from dtalloc.syntax import UNIT, Context, Var, free_vars, heap_free
from dtalloc.target import tgt_eval, tgt_infer


@pytest.fixture
def walks(monkeypatch):
    """A list that grows by one for every node all_names computes afresh."""
    seen = []
    uncached = syntax._all_names

    def counted(e):
        seen.append(e)
        return uncached(e)

    monkeypatch.setattr(syntax, "_all_names", counted)
    return seen


@pytest.fixture
def sort_inferences(monkeypatch):
    """A list that grows by one for every _sort_of query the memo cannot
    answer, that is, every one that reaches tgt_infer."""
    seen = []
    uncached = target._infer_sort

    def counted(lang, heap, ctx, e, what):
        seen.append(e)
        return uncached(lang, heap, ctx, e, what)

    monkeypatch.setattr(target, "_infer_sort", counted)
    return seen


@pytest.fixture
def norm_calls(monkeypatch):
    """A list that grows by one for every node Normalizer.norm visits."""
    seen = []
    uncounted = conversion.Normalizer.norm

    def counted(self, e):
        seen.append(e)
        return uncounted(self, e)

    monkeypatch.setattr(conversion.Normalizer, "norm", counted)
    return seen


@pytest.fixture
def value_tests(monkeypatch):
    """A list that grows by one for every value test of the target machine."""
    seen = []
    machine = target._MACHINE

    def counted(e):
        seen.append(e)
        return machine.is_value(e)

    monkeypatch.setattr(target, "_MACHINE", replace(machine, is_value=counted))
    return seen


@pytest.fixture
def model_calls(monkeypatch):
    """A list that grows by one for every node the model translates."""
    seen = []
    uncounted = model._Modeler.model

    def counted(self, e, env):
        seen.append(e)
        return uncounted(self, e, env)

    monkeypatch.setattr(model._Modeler, "model", counted)
    return seen


def _nested_pair_text(n):
    """A pair whose first component is a pair, n deep, and its type."""
    term, ty = "unit", "Unit"
    for _ in range(n):
        term = f"(pair {term} unit (Sigma (a {ty}) Unit))"
        ty = f"(Sigma (a {ty}) Unit)"
    return term, ty


def _nested_pairs(n):
    return parse(_nested_pair_text(n)[0])


def _compiled_nested_pairs(n):
    return translate(Context(), _nested_pairs(n))


def _compiled_projection_of_let_bound_pair(n):
    """(let (p <nested pair> T) (fst p)), compiled: synthesis normalizes
    the type of p under the definition of p."""
    term, ty = _nested_pair_text(n)
    return translate(Context(), parse(f"(let (p {term} {ty}) (fst p))"))


def test_target_checking_nested_pairs_walks_names_near_linearly(walks):
    counts = {}
    for n in (16, 32):
        compiled = _compiled_projection_of_let_bound_pair(n)
        walks.clear()
        tgt_infer(Heap(), Context(), compiled)
        counts[n] = len(walks)
    assert counts[16] > 0
    # the walk count grew 14x per doubling when every normalize call
    # re-walked the let definitions in scope
    assert counts[32] <= 4 * counts[16], counts


def test_target_checking_nested_pairs_normalizes_independently_of_depth(norm_calls):
    counts = {}
    for n in (8, 16):
        compiled = _compiled_nested_pairs(n)
        norm_calls.clear()
        tgt_infer(Heap(), Context(), compiled)
        counts[n] = len(norm_calls)
    # every eliminated type is a let annotation or a cell type that already
    # shows its pair head; normalizing them made 256 / 896 visits
    assert counts[16] <= counts[8], counts


def test_step_preservation_normalizes_independently_of_depth(norm_calls):
    counts = {}
    for n in (4, 8):
        norm_calls.clear()
        assert check_step_preservation("t", _nested_pairs(n)).verdict == "pass"
        counts[n] = len(norm_calls)
    # normalizing the annotations of every machine state made 880 / 5,888
    # visits
    assert counts[8] <= counts[4], counts


def test_normalizing_an_atom_walks_no_definition(walks):
    defs = {f"p{i}": _compiled_nested_pairs(8) for i in range(20)}
    walks.clear()
    assert normalize(defs, UNIT) == UNIT
    assert normalize(defs, Var("free")) == Var("free")
    assert walks == []


def test_step_preservation_infers_each_closed_heap_free_type_once(sort_inferences):
    counts = {}
    for n in (4, 8):
        sort_inferences.clear()
        assert check_step_preservation("t", _nested_pairs(n)).verdict == "pass"
        memoizable = [e for e in sort_inferences if not free_vars(e) and heap_free(e)]
        assert len({id(e) for e in memoizable}) == len(memoizable)
        counts[n] = len(sort_inferences)
    assert counts[4] > 0
    # the annotations of nested pairs grow with the depth, so the compiled
    # program holds about n^2 distinct type nodes and the count may grow
    # up to 4x per doubling; it grew 6.5x when every machine state
    # re-inferred the universes of all its types
    assert counts[8] <= 4 * counts[4], counts


def test_target_evaluation_tests_values_linearly_in_the_steps(value_tests):
    counts = {}
    for n in (16, 32):
        compiled = _compiled_nested_pairs(n)
        value_tests.clear()
        tgt_eval(compiled)
        counts[n] = len(value_tests)
    assert counts[16] > 0
    # the steps double; stepping from the root re-tested every node above
    # the redex and made 3.97x as many value tests per doubling
    assert counts[32] <= 2.5 * counts[16], counts


def test_model_of_nested_pairs_is_linear_in_the_depth(model_calls):
    counts = {}
    for n in (8, 16, 32):
        model_calls.clear()
        model.emit_model(_compiled_nested_pairs(n))
        counts[n] = len(model_calls)
    # 81 / 161 / 321: every let is modeled once, where it is bound, and
    # inlining its definition does not model it again
    assert counts[16] <= 2.1 * counts[8], counts
    assert counts[32] <= 2.1 * counts[16], counts
