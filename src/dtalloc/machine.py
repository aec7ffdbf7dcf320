"""One refocusing machine for both languages (Danvy and Nielsen,
"Refocusing in Reduction Semantics", 2004).

A language supplies the evaluation-position fields of each node type, its
value test and its contraction rules. The driver keeps the evaluation
context as an explicit stack of frames, each a node with a hole at one
such field, and goes on from each contractum instead of descending again
from the root: the same steps, linear in their number, at any depth.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import FuelExhausted
from .syntax import _ARGS, _INDEX, App, Expr, Fst, Let, Snd

# evaluation positions the two languages share, left to right
EVAL_FIELDS = {Let: ("bound",), App: ("fn", "arg"), Fst: ("expr",), Snd: ("expr",)}


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
    # (heap, redex) -> (heap, contractum, rule); raises StuckError
    contract: Callable

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
        heap, e, rule = self.contract(heap, e)
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
                self.contract(heap, e)
                raise FuelExhausted(fuel)
            heap, e, rule = self.contract(heap, e)
            spent += 1
            if trace is not None:
                trace.append((heap, _plug(stack, e), rule))
