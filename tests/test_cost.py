"""Work counts that guard against super-linear growth in the checkers.

Each test counts calls of an uncached helper (the name analysis, which
walks one node, the sort inference behind target._sort_of, the
normalizer's step, the machine's value test or refocusing, a binding
the machine makes or undoes, the model's step, the judgement's visit of
one node, the audit of one heap cell, a compilation, a machine run, the
construction of an argument parser, or the calls made in building a
record) instead of timing anything, so it gives the same answer on any
machine.
"""

import argparse
import dataclasses
import dis
import gc
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from families import FAMILIES
from records import RECORDS
from test_machine import _lets_in_bound

from dtalloc import alloc, cli, conversion, harness, heap, machine, model, syntax, target
from dtalloc.alloc import translate
from dtalloc.conversion import normalize
from dtalloc.harness import check_differential, check_preservation, check_step_preservation
from dtalloc.heap import Heap
from dtalloc.sexpr import parse
from dtalloc.syntax import UNIT, UNIT_TY, Code, Context, Let, Record, Var, free_vars, heap_free
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
def synth_visits(monkeypatch):
    """A list that grows by one for every node the target judgement visits."""
    seen = []
    uncounted = target._synth

    def counted(lang, heap, ctx, e, view):
        seen.append(e)
        return uncounted(lang, heap, ctx, e, view)

    monkeypatch.setattr(target, "_synth", counted)
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


@pytest.fixture
def translations(monkeypatch):
    """A list that grows by the root term of every _Translator built."""
    seen = []
    uncached = alloc._translate

    def counted(ctx, e):
        seen.append(e)
        return uncached(ctx, e)

    monkeypatch.setattr(alloc, "_translate", counted)
    return seen


@pytest.fixture
def machine_runs(monkeypatch):
    """A list that grows by (start term, whether traced) for every run of
    either machine from the empty heap. An untraced run that meets an open
    term ends as its traced run, so it adds (e, False), then (e, True)."""
    seen = []
    run, steps = machine.Machine.run, machine.Machine.steps

    def counted_run(self, heap, e, fuel):
        if heap is not None and not heap.cells:
            seen.append((e, False))
        return run(self, heap, e, fuel)

    def counted_steps(self, heap, e, fuel):
        if heap is not None and not heap.cells:
            seen.append((e, True))
        return steps(self, heap, e, fuel)

    monkeypatch.setattr(machine.Machine, "run", counted_run)
    monkeypatch.setattr(machine.Machine, "steps", counted_steps)
    return seen


@pytest.fixture
def refocusings(monkeypatch):
    """A list that grows by the focus of every Machine._refocus call."""
    seen = []
    uncounted = machine.Machine._refocus

    def counted(self, e, stack, env=None, trail=()):
        seen.append(e)
        return uncounted(self, e, stack, env, trail)

    monkeypatch.setattr(machine.Machine, "_refocus", counted)
    return seen


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that grows by one for every argparse.ArgumentParser built,
    subcommand parsers included."""
    seen = []
    uncounted = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        seen.append(self)
        uncounted(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return seen


@pytest.fixture
def environment_work(monkeypatch):
    """Counts of what untraced runs do to their environments: "bind" grows
    by one for every binding, "undo" for every binding undone, and "subst"
    for every node substitution visits."""
    seen = {"bind": 0, "undo": 0, "subst": 0}
    bind, undo, psubst = machine._bind, machine._undo, syntax._psubst

    def counted_bind(env, trail, x, v):
        seen["bind"] += 1
        bind(env, trail, x, v)

    def counted_undo(env, trail, mark):
        seen["undo"] += len(trail) - mark
        undo(env, trail, mark)

    def counted_psubst(e, sub):
        seen["subst"] += 1
        return psubst(e, sub)

    monkeypatch.setattr(machine, "_bind", counted_bind)
    monkeypatch.setattr(machine, "_undo", counted_undo)
    monkeypatch.setattr(syntax, "_psubst", counted_psubst)
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
    pairs = _compiled_nested_pairs(8)
    ty = tgt_infer(Heap(), Context(), pairs)
    ctx = Context()
    for i in range(20):
        ctx = ctx.extend(f"p{i}", ty, pairs)
    walks.clear()
    assert normalize(ctx, UNIT) == UNIT
    assert normalize(ctx, Var("free")) == Var("free")
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
    # the source spells out the type below each level, but the translator
    # makes each distinct pair type one object, so the compiled program
    # holds O(n) type objects: 17 / 33 inferences; they were 32 / 96 when
    # every occurrence was a copy of its own, and grew 6.5x per doubling
    # when every machine state re-inferred the universes of all its types
    assert counts[8] <= 2.2 * counts[4], counts


def _target_sort_inferences(sort_inferences, family, sizes):
    counts = {}
    for n in sizes:
        compiled = translate(Context(), parse(FAMILIES[family](n)))
        sort_inferences.clear()
        tgt_infer(Heap(), Context(), compiled)
        counts[n] = len(sort_inferences)
    return counts


def test_target_checking_nested_pairs_infers_sorts_linearly(sort_inferences):
    counts = _target_sort_inferences(sort_inferences, "nested_pairs", (4, 8, 16))
    assert counts[4] > 0
    # 17 / 33 / 65: one inference per distinct pair type and fill level;
    # 32 / 96 / 320 when each annotation was a copy of its own
    assert counts[8] <= 2.2 * counts[4] and counts[16] <= 2.2 * counts[8], counts


def test_target_checking_a_let_chain_infers_sorts_independently_of_length(sort_inferences):
    counts = _target_sort_inferences(sort_inferences, "let_chain", (4, 8, 16))
    assert counts[4] > 0
    # every link builds a pair of one type, so the chain holds three
    # annotation objects at any length: 5 / 5 / 5 inferences; 40 / 72 /
    # 136 when each link had copies of its own
    assert counts[16] <= counts[8] <= counts[4], counts


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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_traced_run_tests_values_linearly_in_the_steps(value_tests, family):
    counts = {}
    for n in (16, 32):
        compiled = translate(Context(), parse(FAMILIES[family](n)))
        value_tests.clear()
        target.tgt_steps(compiled)
        counts[n] = len(value_tests)
    assert counts[16] > 0
    # 1.89x to 2.02x per doubling; refocusing each state from its root
    # re-tested every node above the redex, 3.91x on nested_pairs and
    # 3.60x on closure_env
    assert counts[32] <= 2.2 * counts[16], (family, counts)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_an_untraced_run_leaves_the_free_names_of_its_program_unanalysed(family):
    for n in (1, 4, 8):
        te = translate(Context(), parse(FAMILIES[family](n)))
        tgt_eval(te)
        # a run finds an open program where an open term leaves its
        # environment; testing closedness up front walks every node of the
        # program, types included, which the run itself never visits
        assert "_free_vars" not in te.__dict__, (family, n)


def _let_spine(n):
    """let x0 = unit in let x1 = x0 in ... xn: n + 1 lets in body position."""
    e = Var(f"x{n}")
    for k in range(n, 0, -1):
        e = Let(f"x{k}", Var(f"x{k - 1}"), UNIT_TY, e)
    return Let("x0", UNIT, UNIT_TY, e)


@pytest.mark.parametrize("nest", [_let_spine, _lets_in_bound])
def test_an_untraced_binding_costs_constant_work(environment_work, nest):
    counts = {}
    for n in (1000, 2000, 4000):
        environment_work.update(dict.fromkeys(environment_work, 0))
        assert tgt_eval(nest(n)).expr == UNIT
        counts[n] = sum(environment_work.values())
    # n bindings in the spine, and n bindings and n undone in the bound,
    # each one store in the environment and one entry of its undo log
    assert counts[1000] >= 1000, counts
    assert counts[2000] <= 2.2 * counts[1000], counts
    assert counts[4000] <= 2.2 * counts[2000], counts


def test_an_untraced_compiled_let_chain_substitutes_nothing(environment_work):
    for n in (16, 32):
        compiled = translate(Context(), parse(FAMILIES["let_chain"](n)))
        lets = [rule for _, rule in target.tgt_steps(compiled)].count("let")
        environment_work.update(dict.fromkeys(environment_work, 0))
        tgt_eval(compiled)
        # every let step binds its value, closed, in the environment; the
        # run substituted 526 / 1,038 nodes when each let step substituted
        # its value into the rest of the chain
        assert environment_work["bind"] == lets > 0, environment_work
        assert environment_work["subst"] == 0, environment_work


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


@pytest.mark.parametrize("family, most", [("nested_pairs", 0.4), ("let_chain", 0.4),
                                          ("closure_env", 1.0)])
def test_local_step_check_visits_fewer_nodes_than_typing_whole_states(synth_visits, family, most):
    counts = {}
    for local in (True, False):
        synth_visits.clear()
        e = parse(FAMILIES[family](16))
        assert check_step_preservation("t", e, local=local).verdict == "pass"
        counts[local] = len(synth_visits)
    # typing every whole state visited 9,265 / 18,345 / 10,480 nodes, the
    # local check 2,107 / 2,795 / 3,955
    assert counts[True] < counts[False], counts
    assert counts[True] <= most * counts[False], counts


def test_step_preservation_of_a_let_chain_visits_near_linearly(synth_visits):
    counts = {}
    for n in (16, 32):
        synth_visits.clear()
        assert check_step_preservation("t", parse(FAMILIES["let_chain"](n))).verdict == "pass"
        counts[n] = len(synth_visits)
    # 931 / 1,827 visits; 2,795 / 9,131 when each let step typed the rest
    # of the chain again, as the whole state at the top of the term
    assert counts[32] <= 2.2 * counts[16], counts


def test_step_preservation_audits_one_cell_per_replaced_heap(monkeypatch):
    audits, heaps = [], []
    audit, audit_heap = target._audit_cell, harness.heap_wf

    def counted_audit(heap, i, cell):
        audits.append(i)
        return audit(heap, i, cell)

    def counted_heap(heap):
        heaps.append(heap)
        return audit_heap(heap)

    monkeypatch.setattr(target, "_audit_cell", counted_audit)
    monkeypatch.setattr(harness, "heap_wf", counted_heap)
    for n in (8, 16):
        audits.clear()
        heaps.clear()
        assert check_step_preservation("t", _nested_pairs(n)).verdict == "pass"
        # the run starts with an empty heap, and every step that replaces
        # the heap allocates or writes one cell that no other cell holds
        # yet; auditing every cell of every heap made 164 / 648 audits
        assert len(audits) == len(heaps) - 1 == 3 * n, (n, len(audits), len(heaps))


def test_the_local_step_check_keeps_the_type_on_a_known_number_of_steps(monkeypatch):
    decisions = []
    keeps = harness._step_keeps_type

    def counted(prev, prev_ty, cfg):
        decisions.append(keeps(prev, prev_ty, cfg))
        return decisions[-1]

    monkeypatch.setattr(harness, "_step_keeps_type", counted)
    programs = harness.load_corpus(Path(__file__).resolve().parent.parent / "corpus")
    programs += [(f"{f}{n}", parse(FAMILIES[f](n))) for f in sorted(FAMILIES) for n in range(1, 9)]
    for name, e in programs:
        assert check_step_preservation(name, e).verdict == "pass", name
    # the steps after the first state, and those the local check keeps
    # without typing the whole state; a change that moves a decision
    # updates these counts and says why
    assert (len(decisions), decisions.count(True)) == (1291, 1156)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_preservation_refocuses_each_state_once(refocusings, family):
    for n in (4, 8):
        states = len(target.tgt_steps(translate(Context(), parse(FAMILIES[family](n)))))
        refocusings.clear()
        assert check_step_preservation("t", parse(FAMILIES[family](n))).verdict == "pass"
        # the run refocuses once per state, from the contractum its step
        # made, the last to find the term a value, and the local check
        # reads each step's record; refocusing the state before each step
        # again made 2n - 1 calls for n states (closure_env at 8: 125 for
        # 63 states)
        assert len(refocusings) == states, (family, n, states)


def test_the_checks_of_one_program_compile_and_run_it_once(translations, machine_runs):
    e = parse(FAMILIES["closure_env"](2))
    assert check_preservation("t", Context(), e).verdict == "pass"
    assert check_differential("t", e).verdict == "pass"
    assert check_step_preservation("t", e).verdict == "pass"
    te = translate(Context(), e)
    # each check compiled e anew, and the step check typed its first state
    # again, before the compiled term and its judgements were kept on e
    assert [x for x in translations if x is e] == [e]
    # one evaluation, and the step check's own traced run
    assert machine_runs == [(te, False), (te, True)]


def test_the_checks_type_each_code_object_once_per_language_and_mode(monkeypatch):
    asks = []
    uncounted = target._code

    def counted(lang, heap, e, view):
        if type(e) is Code:
            asks.append((e, lang, view))
        return uncounted(lang, heap, e, view)

    monkeypatch.setattr(target, "_code", counted)
    for name, e in harness.load_corpus(Path(__file__).resolve().parent.parent / "corpus"):
        translate(Context(), e)
        assert check_step_preservation(name, e).verdict == "pass", name
    # asks holds every object it names, so no id is reused; code that
    # allocates, compiled code that builds a pair, is typed at each use:
    # 47 typings of 22 objects, 114 when every use typed its code again
    kept = [(id(e), lang, view) for e, lang, view in asks if heap_free(e)]
    assert len(kept) == len(set(kept)) > 0, len(kept) - len(set(kept))
    assert len(asks) - len(kept) <= 12, len(asks)


def test_cli_main_builds_no_parser_after_its_first_call(parsers_built, capsys):
    negatives = sorted((Path(__file__).resolve().parent.parent / "corpus" / "negative").iterdir())
    argvs = [["check", str(p), "--lang", "target" if p.suffix == ".tgt" else "source"]
             for p in negatives]
    assert cli.main(argvs[0]) != 0
    parsers_built.clear()
    codes = [cli.main(argvs[i % len(argvs)]) for i in range(50)]
    assert all(codes)
    # building a parser per call was most of a negative file's check verdict
    assert parsers_built == []


def test_importing_the_cli_builds_no_parser(parsers_built):
    spec = importlib.util.find_spec("dtalloc.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert fresh is not cli and parsers_built == []
    assert fresh.build_parser() is fresh.build_parser()
    # dtalloc and its six subcommands
    assert len(parsers_built) == 7


def _calls_in_building(cls, args):
    """The Python functions entered while cls(*args) runs, and the call
    instructions they execute. A call of a slot wrapper such as
    object.__setattr__ makes no profiler event, so calls are counted
    instruction by instruction. Garbage is collected before and not
    during the run, so that no finalizer of an unrelated object, such as
    a suspended generator, runs inside it."""
    entered, calls = [], []

    def trace(frame, event, arg):
        if event == "call":
            entered.append(frame.f_code.co_name)
            frame.f_trace_opcodes = True
        elif event == "opcode" and dis.opname[frame.f_code.co_code[frame.f_lasti]].startswith("CALL"):
            calls.append(frame.f_code.co_name)
        return trace

    gc.collect()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        cls(*args)
    finally:
        sys.settrace(previous)
        gc.enable()
    return entered, calls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_building_a_record_makes_one_python_call_and_calls_nothing(cls):
    # the __init__ of dataclass(frozen=True) made one object.__setattr__
    # call per field: five for a Let
    assert _calls_in_building(cls, RECORDS[cls]) == (["__init__"], [])


def test_every_record_class_takes_its_frozen_record_methods_from_one_base():
    for cls in RECORDS:
        for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
            assert getattr(cls, name) is getattr(Record, name), (cls, name)
    # nor is any other class of those modules a frozen dataclass of its
    # own, but the UNINIT sentinel
    made = {v for m in (syntax, heap) for v in vars(m).values()
            if isinstance(v, type) and dataclasses.is_dataclass(v)}
    assert made - set(RECORDS) == {heap._Uninit}
