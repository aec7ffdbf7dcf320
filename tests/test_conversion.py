"""Normalization that binds let values in an environment, against its
oracle: the same normalizer with no value bound, which contracts every
let by substitution."""

from contextlib import contextmanager
from pathlib import Path

import pytest
from families import FAMILIES

from dtalloc import conversion
from dtalloc.alloc import translate
from dtalloc.errors import FuelExhausted
from dtalloc.harness import (
    GenSpec,
    check_differential,
    check_preservation,
    check_reduction_preserved,
    check_sort_preservation,
    check_step_preservation,
    check_subst_commute,
    gen_cases,
    gen_lemma4,
    gen_typed,
    load_corpus,
    source_step_pairs,
)
from dtalloc.heap import Heap
from dtalloc.sexpr import Lang, parse, print_expr
from dtalloc.source import src_infer
from dtalloc.syntax import STAR, Context, Let, Var
from dtalloc.target import tgt_infer, tgt_subtype

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def every_check(name, e):
    """Type, compile and target-check the closed program e, and run every
    property check of the harness on it."""
    ctx = Context()
    ty = src_infer(ctx, e)
    te = translate(ctx, e)
    tgt_subtype(Heap(), ctx, tgt_infer(Heap(), ctx, te), translate(ctx, ty))
    check_preservation(name, ctx, e)
    check_sort_preservation(name, ctx, e)
    check_differential(name, e)
    check_step_preservation(name, e)
    for i, (a, b) in enumerate(source_step_pairs(e)):
        check_reduction_preserved(f"{name}.{i}", a, b)


def _outcome(norm, n, e):
    """(normal form, or the type and text of the error, fuel left, scratch
    heap cells) of n.norm(e)."""
    try:
        got = norm(n, e)
    except (FuelExhausted, RecursionError) as err:  # compared, then raised again
        got = err
    return got, n.fuel.left, n.heap.cells


def _same(a, b) -> bool:
    if isinstance(a[0], Exception) or isinstance(b[0], Exception):
        a = ((type(a[0]), str(a[0])), *a[1:])
        b = ((type(b[0]), str(b[0])), *b[1:])
    return a == b


@contextmanager
def beside_substitution():
    """Within, every top-level normalization runs twice from the same heap,
    fuel and memo: as the normalizer makes it, then with no let value
    bound in the environment, that is, by substitution. Yields a record
    of the normalizations compared, the lets the environment bound (the
    let contractions substitution makes beyond the normalizer's own) and
    a line per disagreement. The normalizer goes on from its own run."""
    tally = {"normalizations": 0, "lets bound": 0, "disagreements": []}
    norm, contract = conversion.Normalizer.norm, conversion.contract
    depth, lets = [0], [0]

    def counted_contract(heap, e):
        lets[0] += type(e) is Let
        return contract(heap, e)

    def compared(self, e):
        if depth[0]:
            return norm(self, e)
        heap, left, memo = self.heap, self.fuel.left, dict(self.memo)
        depth[0] += 1
        try:
            before = lets[0]
            got = _outcome(norm, self, e)
            theirs = lets[0] - before
            after = self.heap, self.fuel.left, self.memo
            self.heap, self.fuel.left, self.memo = heap, left, memo
            with pytest.MonkeyPatch.context() as m:
                m.setattr(conversion, "_BINDS", frozenset())
                before = lets[0]
                want = _outcome(norm, self, e)
                tally["lets bound"] += lets[0] - before - theirs
            self.heap, self.fuel.left, self.memo = after
        finally:
            depth[0] -= 1
        tally["normalizations"] += 1
        if not _same(got, want):
            tally["disagreements"].append(f"{e!r:.200}: {got!r:.200} but substitution {want!r:.200}")
        if isinstance(got[0], Exception):
            raise got[0]
        return got[0]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(conversion, "contract", counted_contract)
        m.setattr(conversion.Normalizer, "norm", compared)
        yield tally


def test_environment_normalization_agrees_with_substitution():
    programs = load_corpus(CORPUS)
    programs += [(f"{f}/{n}", parse(FAMILIES[f](n))) for f in sorted(FAMILIES) for n in range(1, 9)]
    with beside_substitution() as tally:
        for name, e in programs:
            every_check(name, e)
        for seed in range(20):
            cid, ctx, e_open, _ = gen_cases(1, seed=seed)[0]
            check_preservation(cid, ctx, e_open)
            check_subst_commute(f"subst{seed}", *gen_lemma4(GenSpec(depth=4, seed=seed)))
            every_check(f"gen{seed}", gen_typed(GenSpec(depth=4, seed=seed, closed=True))[1])
    assert tally["disagreements"] == []
    assert tally["normalizations"] > 1000
    assert tally["lets bound"] > 100


CODE = "(code ((n Unit) (x Unit)) x)"
CODE_TY = "(Code ((n Unit) (x Unit)) Unit)"


# a tuple whose first slot holds the free name x, then read or written
# again under a let of x
WROTE_X = "(let (l (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0))) (let (l1 (assign1 l x) %s) %s))"
S = "(Sigma (a Unit) Unit)"


@pytest.mark.parametrize("lang, text, bound", [
    # a pair is not its own normal form under every heap: it substitutes
    (Lang.SOURCE, f"(let (p (pair unit unit {S}) {S}) (fst p))", 0),
    (Lang.SOURCE, "(let (x unit Unit) (let (x Unit Star) (pair unit unit (Sigma (a x) x))))", 2),
    # three locations, the last under a ctag
    (Lang.TARGET, print_expr(translate(Context(), parse("(clo %s unit (Pi (x Unit) Unit))" % CODE)),
                             Lang.TARGET), 3),
    (Lang.TARGET, f"(let (c {CODE} {CODE_TY}) (app (clo c unit (Pi (x Unit) Unit)) unit))", 1),
    # open code is not bound
    (Lang.TARGET, f"(let (c (code ((n Unit) (x Unit)) t) {CODE_TY}) c)", 0),
    # a binder of its own shadows the environment: the node is closed first
    (Lang.SOURCE, "(let (x unit Unit) (Pi (x Star) x))", 1),
    # code, and the types a malloc stores unevaluated, are closed
    (Lang.TARGET, "(let (x unit Unit) (code ((n Unit) (y Unit)) x))", 1),
    (Lang.TARGET, "(let (t Unit Star) (malloc (a t) t))", 1),
    # a let that substitutes closes its body first
    (Lang.SOURCE, f"(let (x unit Unit) (let (p (pair unit unit {S}) {S}) (pair p x {S})))", 1),
    # but not for the binder it shadows
    (Lang.SOURCE, f"(let (x Unit Star) (let (x (pair unit unit {S}) {S}) x))", 1),
    # a value read from the heap, and one replayed into its slot, lie
    # outside the let of x: their x is the free one
    (Lang.TARGET, WROTE_X % ("(Sigma (a Unit 1) (Unit 0))", "(let (x unit Unit) (fst l1))"), 3),
    (Lang.TARGET, WROTE_X % ("(Sigma (a Unit 1) (Unit 0))", "(let (x unit Unit) (assign1 l1 unit))"), 3),
])
def test_a_let_binds_only_values_that_are_their_own_normal_form(lang, text, bound):
    with beside_substitution() as tally:
        conversion.normalize(Context(), parse(text, lang))
    assert tally["disagreements"] == []
    assert tally["lets bound"] == bound


def test_a_definition_unfolds_outside_the_lets_being_normalized():
    # d names the context's y, not the let's
    ctx = Context().extend("y", STAR).extend("d", STAR, Var("y"))
    with beside_substitution() as tally:
        assert conversion.normalize(ctx, parse("(let (y Unit Star) d)")) == Var("y")
    assert tally["disagreements"] == []
    assert tally["lets bound"] == 1
