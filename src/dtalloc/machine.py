"""One reduction relation for both languages, and one refocusing machine
(Danvy and Nielsen, "Refocusing in Reduction Semantics", 2004).

contract states each contraction rule once, for both machines and for
conversion's normalizer. A language supplies the evaluation-position
fields of each node type, its value test and its stuck messages. One
refocusing routine, Machine._refocus, keeps the evaluation context as an
explicit stack of frames, each a node with a hole at one such field.

Both runs go on from each contractum instead of descending again from
the root: the same steps, linear in their number, at any depth. A traced
run, Machine.steps, substitutes let values through contract and records
each step: the frames around the redex, outermost first, and the redex,
all objects of the state before the step, the contractum, and the next
state, the frames plugged with the contractum. Each plugged node
replaces its frame, so consecutive states share their unchanged subterms
by identity and step-preservation's local check reads each step from
its record, and contract's result from the redex, where the run keeps
it.

An untraced run, Machine.run, keeps no records. It binds a let's value
in an environment instead of substituting it (Ager, Biernacki, Danvy and
Midtgaard, "A Functional Correspondence between Evaluators and Abstract
Machines", 2003). A term is closed, by substitution, only where it
leaves the environment: a redex for contract, a value being bound, a
value for a frame outside the binding, and the final value. Those values
are closed, so the substitutions rename nothing and the run ends in the
state of the traced run after the same steps; where an open term would
leave the environment, the run returns the last state of the traced run.
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
    free_vars,
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

# the key under which a traced run keeps (contract, heap, result) on each
# redex it contracts, where equality, hashing and repr do not look
CONTRACTED = "_contracted"


def _fill(node: Expr, hole: str, e: Expr) -> Expr:
    """node with e in its field hole, keeping node's position."""
    cls = type(node)
    args = list(_ARGS[cls](node))
    args[_INDEX[cls, hole]] = e
    return cls(*args)


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

    def _refocus(self, e: Expr, stack: list, env: dict | None = None,
                 trail=()) -> tuple[Expr, bool]:
        """Move from the focus e to the next redex, plugging frames on the way
        up and pushing them on the way down: (redex, True), or (value, False)
        once the whole term is a value. env, if given, binds let values,
        closed, and trail, its undo log, lists each binding with the value
        it shadowed; a frame (node, field, mark) is pushed when trail has
        mark entries. A variable in evaluation position is looked up in
        env, and a value that leaves a frame pushed before a binding is
        closed and the binding undone: a binding and its undo cost O(1)."""
        is_value, eval_fields = self.is_value, self.eval_fields
        while True:
            while is_value(e):
                if not stack:
                    return _close(e, env), False
                node, hole, mark = stack.pop()
                if mark < len(trail):
                    e = _close(e, env)
                    _undo(env, trail, mark)
                e = _fill(node, hole, e)
            filled = False
            while True:
                for name in eval_fields.get(type(e), ()):
                    sub = getattr(e, name)
                    if env and type(sub) is Var and sub.name in env:
                        e, filled = _fill(e, name, env[sub.name]), True
                    elif not is_value(sub):
                        stack.append((e, name, len(trail)))
                        e, filled = sub, False
                        break
                else:
                    break
            if env and type(e) is Var and e.name in env:
                e = env[e.name]
            elif not (filled and is_value(e)):
                return e, True

    def steps(self, heap, e: Expr, fuel: int):
        """The run of e from heap, yielding one record (heap, term, rule,
        frames, redex, contractum) per step; past fuel steps a stuck redex
        raises StuckError, any other FuelExhausted. frames, the nodes (node,
        field, mark) around the redex, outermost first, and the redex are
        objects of the state before the step; term, the next state, is the
        frames plugged with the contractum. Each plugged node replaces its
        frame, so a node popped while the focus is a value holds it. Each
        redex keeps, under CONTRACTED, the contraction function, the heap it
        was contracted against and contract's result, so that a check of the
        step need not contract it again."""
        is_value, stack, spent = self.is_value, [], 0
        while True:
            while stack and is_value(e):
                e = stack.pop()[0]
            redex, found = self._refocus(e, stack)
            if not found:
                return
            if spent >= fuel:
                self._contract(heap, redex)
                raise FuelExhausted(fuel)
            spent += 1
            frames = stack.copy()
            r = self._contract(heap, redex)
            redex.__dict__[CONTRACTED] = contract, heap, r
            heap, e, rule = r
            t = e
            for k in range(len(stack) - 1, -1, -1):
                node, hole, mark = stack[k]
                t = _fill(node, hole, t)
                stack[k] = t, hole, mark
            yield heap, t, rule, frames, redex, e

    def run(self, heap, e: Expr, fuel: int):
        """Contract up to fuel redexes and return (heap, value); past the
        budget a stuck redex raises StuckError, any other FuelExhausted.

        The loop binds each let's value in env instead of substituting it.
        When an open term would leave env, the run is the traced run's
        instead, ending in its last state: substituting an open value may
        rename binders, and simultaneous substitution need not choose the
        names that one at a time does."""
        h, t, env, stack, trail, spent = heap, e, {}, [], [], 0
        try:
            while True:
                t, redex = self._refocus(t, stack, env, trail)
                if not redex:
                    return h, t
                if spent >= fuel:
                    self._contract(h, _close(t, env))
                    raise FuelExhausted(fuel)
                spent += 1
                if type(t) is Let:
                    _bind(env, trail, t.binder, _close(t.bound, env))
                    t = t.body
                else:
                    h, t, _ = self._contract(h, _close(t, env))
        except _Open:
            pass
        for heap, e, *_ in self.steps(heap, e, fuel):
            pass
        return heap, e


class _Open(Exception):
    """A term left the environment with a free name it does not bind."""


def _close(e: Expr, env: dict | None) -> Expr:
    """e with the values env binds put in for its free names; raises _Open
    when env does not bind one of them, even when env is empty. Without an
    env e is returned as it is, and its free names are not computed."""
    if env is None:
        return e
    fv = free_vars(e)
    if not fv:
        return e
    sub = {x: env[x] for x in fv if x in env}
    if len(sub) < len(fv):
        raise _Open
    return subst_many(e, sub)


def _bind(env: dict, trail: list, x: str, v: Expr) -> None:
    """Bind x to v in env, noting on trail the value it shadows, if any."""
    trail.append((x, env.get(x)))
    env[x] = v


def _undo(env: dict, trail: list, mark: int) -> None:
    """Undo the bindings on trail after its first mark entries."""
    while len(trail) > mark:
        x, old = trail.pop()
        if old is None:
            del env[x]
        else:
            env[x] = old
