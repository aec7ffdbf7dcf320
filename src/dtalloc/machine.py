"""One reduction relation for both languages, and one refocusing machine
(Danvy and Nielsen, "Refocusing in Reduction Semantics", 2004).

contract states each contraction rule once, for both machines and for
conversion's normalizer. A language supplies the evaluation-position
fields of each node type, its value test and its stuck messages. The
driver keeps the evaluation context as an explicit stack of frames, each
a node with a hole at one such field, and goes on from each contractum
instead of descending again from the root: the same steps, linear in
their number, at any depth.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import FuelExhausted, StuckError
from .heap import SLOT, UNINIT, HeapCell, writable
from .syntax import (
    _ARGS,
    _INDEX,
    App,
    Assign1,
    Assign2,
    Clo,
    Code,
    CTag,
    Expr,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Sigma,
    Snd,
    Var,
    subst,
    subst_many,
)

# evaluation positions the two languages share, left to right
EVAL_FIELDS = {Let: ("bound",), App: ("fn", "arg"), Fst: ("expr",), Snd: ("expr",)}

# stuck messages the two machines share: str.format templates of the redex e
STUCK = {
    App: "cannot apply {e.fn.__class__.__name__}",
    Var: "free variable '{e.name}' cannot step",
}


# ---------------------------------------------------------------------------
# The contraction rules

# the flag errors and projection and assignment rule names, per slot or form
_UNREAD = {1: "first slot is uninitialized", 2: "second slot is uninitialized"}
_UNWRITTEN = {1: "first slot was already written",
              2: "second slot needs a filled first slot and an empty second"}
_PAIR_RULE = {Fst: "fst-pair", Snd: "snd-pair"}
_LOC_RULE = {Fst: "fst-loc", Snd: "snd-loc", Assign1: "assign1", Assign2: "assign2"}


def _cell(heap, i: int, what: str) -> HeapCell:
    cell = heap.cell(i)
    if cell is None:
        raise StuckError(f"{what} through a dangling location")
    return cell


def contract(heap, e: Expr):
    """One contraction of the redex e, whose evaluation positions are done,
    against heap: (heap, contractum, rule), or None when no rule applies. A
    tuple's rule raises StuckError when the location dangles or the slot is
    not yet filled, already written or not code. The patterns name fields:
    positional ones made normalization, which contracts here, a tenth slower."""
    match e:
        case Let():
            return heap, subst(e.body, e.bound, e.binder), "let"
        case Malloc():
            # stored types are not evaluated
            heap, n = heap.alloc(HeapCell(Sigma(e.binder, e.ty1, 0, e.ty2, 0), UNINIT, UNINIT))
            return heap, Loc(n), "malloc"
        case Assign1(tuple_=Loc() as t) | Assign2(tuple_=Loc() as t):
            i = SLOT[type(e)]
            cell = _cell(heap, t.loc_id, "assignment")
            if not writable(cell.cell_type, i):
                raise StuckError(_UNWRITTEN[i])
            return heap.with_cell(t.loc_id, cell.write(i, e.value)), t, _LOC_RULE[type(e)]
        case Fst(expr=Loc() as t) | Snd(expr=Loc() as t):
            i = SLOT[type(e)]
            v = _cell(heap, t.loc_id, "projection").read(i)
            if v is None:
                raise StuckError(_UNREAD[i])
            return heap, v, _LOC_RULE[type(e)]
        case Fst(expr=Pair() as p) | Snd(expr=Pair() as p):
            return heap, p.fst if SLOT[type(e)] == 1 else p.snd, _PAIR_RULE[type(e)]
        case App(fn=CTag(expr=Loc() as t)):
            cell = _cell(heap, t.loc_id, "application")
            c, env = cell.read(1), cell.read(2)
            if c is None or env is None:
                raise StuckError("application through a partly initialized tuple")
            if not isinstance(c, Code):
                raise StuckError("tagged tuple does not hold code")
            return heap, subst_many(c.body, {c.env_binder: env, c.arg_binder: e.arg}), "app-ctag"
        case App(fn=Clo(code=Code() as c, env=env)):
            return heap, subst_many(c.body, {c.env_binder: env, c.arg_binder: e.arg}), "app-clo"
    return None


# ---------------------------------------------------------------------------
# The machine

def _plug(frames, e: Expr) -> Expr:
    """e put into the holes of the frames (node, field), innermost last; a
    plugged node keeps its position."""
    for node, hole in reversed(frames):
        cls = type(node)
        args = list(_ARGS[cls](node))
        args[_INDEX[cls, hole]] = e
        e = cls(*args)
    return e


@dataclass(frozen=True)
class Machine:
    eval_fields: dict[type, tuple[str, ...]]
    is_value: Callable[[Expr], bool]
    # node type -> message of a redex of that type that contract leaves,
    # with e the redex; Expr gives every type not listed
    stuck: dict[type, str]
    # forms of the other language: never contracted, stuck by stuck[Expr]
    foreign: frozenset[type] = frozenset()

    def _contract(self, heap, e: Expr):
        r = None if type(e) in self.foreign else contract(heap, e)
        if r is None:
            raise StuckError(self.stuck.get(type(e), self.stuck[Expr]).format(e=e))
        return r

    def _refocus(self, e: Expr, stack: list) -> tuple[Expr, bool]:
        """Move from the focus e to the next redex, plugging frames on the way
        up and pushing them on the way down: (redex, True), or (value, False)
        once the whole term is a value."""
        is_value, eval_fields = self.is_value, self.eval_fields
        while is_value(e):
            if not stack:
                return e, False
            e = _plug((stack.pop(),), e)
        while True:
            for name in eval_fields.get(type(e), ()):
                sub = getattr(e, name)
                if not is_value(sub):
                    stack.append((e, name))
                    e = sub
                    break
            else:
                return e, True

    def step(self, heap, e: Expr):
        """One contraction from the root: (heap, term, rule), or None."""
        stack: list = []
        e, redex = self._refocus(e, stack)
        if not redex:
            return None
        heap, e, rule = self._contract(heap, e)
        return heap, _plug(stack, e), rule

    def run(self, heap, e: Expr, fuel: int, trace: list | None = None):
        """Contract up to fuel redexes and return (heap, value); past the
        budget a stuck redex raises StuckError, any other FuelExhausted. Each
        contraction appends (heap, whole term, rule) to trace, if given."""
        stack, spent = [], 0
        while True:
            e, redex = self._refocus(e, stack)
            if not redex:
                return heap, e
            if spent >= fuel:
                self._contract(heap, e)
                raise FuelExhausted(fuel)
            heap, e, rule = self._contract(heap, e)
            spent += 1
            if trace is not None:
                trace.append((heap, _plug(stack, e), rule))
