"""Work counts that guard against super-linear growth in the checkers.

Each test counts calls of the uncached name-analysis helper, which walks
one node, instead of timing anything, so it gives the same answer on any
machine.
"""

import pytest

from dtalloc import syntax
from dtalloc.alloc import translate
from dtalloc.conversion import normalize
from dtalloc.heap import Heap
from dtalloc.sexpr import parse
from dtalloc.syntax import UNIT, Context, Var
from dtalloc.target import tgt_infer


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


def _compiled_nested_pairs(n):
    """The compiled form of a pair whose first component is a pair, n deep."""
    term, ty = "unit", "Unit"
    for _ in range(n):
        term = f"(pair {term} unit (Sigma (a {ty}) Unit))"
        ty = f"(Sigma (a {ty}) Unit)"
    return translate(Context(), parse(term))


def test_target_checking_nested_pairs_walks_names_near_linearly(walks):
    counts = {}
    for n in (16, 32):
        compiled = _compiled_nested_pairs(n)
        walks.clear()
        tgt_infer(Heap(), Context(), compiled)
        counts[n] = len(walks)
    assert counts[16] > 0
    # the walk count grew 14x per doubling when every normalize call
    # re-walked the let definitions in scope
    assert counts[32] <= 4 * counts[16], counts


def test_normalizing_an_atom_walks_no_definition(walks):
    defs = {f"p{i}": _compiled_nested_pairs(8) for i in range(20)}
    walks.clear()
    assert normalize(defs, UNIT) == UNIT
    assert normalize(defs, Var("free")) == Var("free")
    assert walks == []
