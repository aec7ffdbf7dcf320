"""A shallow relational model of target terms, emitted as text.

A flagged pair type turns into a packed value refined by an equation: a
pair of Maybe-wrapped slots together with evidence pinning each slot to
None or Just according to the flags. Filled slots are mediated by
existentials rather than mentioning the stored terms, so the same schema
serves every cell of a given shape:

  flags (0,0): (sigma (p : (sigma (x : (Maybe A)) (Maybe B)))
                 (eq p (pair None None)))
  flags (1,0): ... (exists (e1 : A) (eq p (pair (Just e1) None)))
  flags (1,1): ... (exists (e1 : A) (exists (e2 : B[e1/x])
                 (eq p (pair (Just e1) (Just e2)))))

Flags (0,1) have no schema and raise Unsupported. Inside the packed pair
the second slot's type still binds x at a Maybe-wrapped value; the
emitted text keeps that occurrence as written.

Terms follow the same packing: malloc is the fully-None pair with a
trivial proof, the assignments update one slot, projections go through
maybe-fst and maybe-snd, ctag disappears, lets are inlined, and code
becomes a curried function. The text is built straight from the target
syntax; an inlined definition renames the binders it would otherwise be
captured by.
"""

from __future__ import annotations

from typing import NamedTuple

from .heap import SLOT
from .syntax import (
    App,
    Assign1,
    Assign2,
    Clo,
    Code,
    CodeTy,
    CTag,
    Expr,
    Fst,
    Let,
    Loc,
    Malloc,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    Var,
    free_vars,
    fresh_name,
)


class Unsupported(Exception):
    """Raised for terms the model does not cover."""


class _Packed(NamedTuple):
    """A tuple built in place: the text of its two maybe-slots, which an
    assignment replaces one at a time."""

    slot1: str
    slot2: str

    def __str__(self) -> str:
        return f"(pair (pair {self.slot1} {self.slot2}) refl)"


# An environment maps each let-bound name to its definition's model and the
# names free in that model.
Env = dict[str, tuple["str | _Packed", set[str]]]


def _free(e: Expr, env: Env) -> set[str]:
    """The names free in e's model: e's free names, each inlined one
    replaced by the free names of its definition."""
    names: set[str] = set()
    for x in free_vars(e):
        names |= env[x][1] if x in env else {x}
    return names


class _Modeler:
    def __init__(self):
        self.schemas: set[str] = set()
        self.helpers: set[str] = set()

    def model(self, e: Expr, env: Env) -> str | _Packed:
        match e:
            case Var(x):
                return env[x][0] if x in env else x
            case UnitTm():
                return "unit"
            case UnitTy():
                return "Unit"
            case Univ(u):
                return u.value
            case Pi(x, dom, cod):
                d = self.model(dom, env)
                x2, env2 = self._under(x, env, cod)
                return f"(pi ({x2} : {d}) {self.model(cod, env2)})"
            case Sigma():
                return self._sigma(e, env)
            case CodeTy(n, envty, x, argty, body) | Code(n, envty, x, argty, body):
                # code types become curried function types, code curried functions
                former = "pi" if isinstance(e, CodeTy) else "lam"
                d1 = self.model(envty, env)
                n2, env_n = self._under(n, env, argty, body)
                d2 = self.model(argty, env_n)
                x2, env_nx = self._under(x, env_n, body)
                inner = f"({former} ({x2} : {d2}) {self.model(body, env_nx)})"
                return f"({former} ({n2} : {d1}) {inner})"
            case App(f, a):
                return f"({self.model(f, env)} {self.model(a, env)})"
            case Let(x, bound, _, body):
                env2 = dict(env)
                env2[x] = (self.model(bound, env), _free(bound, env))
                return self.model(body, env2)
            case Fst(t) | Snd(t):
                helper = ("maybe-fst", "maybe-snd")[SLOT[type(e)] - 1]
                self.helpers.add(helper)
                return f"({helper} {self.model(t, env)})"
            case Malloc():
                return _Packed("None", "None")
            case Assign1(t, v) | Assign2(t, v):
                # the tuple's two maybe-slots, with the written one replaced
                mt = self.model(t, env)
                if isinstance(mt, _Packed):
                    slots = list(mt)
                else:
                    slots = [f"(fst (fst {mt}))", f"(snd (fst {mt}))"]
                slots[SLOT[type(e)] - 1] = f"(Just {self.model(v, env)})"
                return _Packed(*slots)
            case CTag(t):
                return self.model(t, env)
            case Loc():
                raise Unsupported("run-time locations have no model")
            case Pair() | Clo():
                raise Unsupported(f"{type(e).__name__.lower()} is not a target form")
        raise TypeError(f"unknown expression node: {e!r}")

    def _under(self, x: str, env: Env, *scope: Expr) -> tuple[str, Env]:
        """Descend below a binder x over the children in scope: drop any
        inlined definition it shadows and rename it away from names free
        in the remaining ones and in its scope."""
        env2 = {k: v for k, v in env.items() if k != x}
        taken = set().union(*(names for _, names in env2.values()))
        if x in taken:
            for s in scope:
                taken |= _free(s, env2)
            x2 = fresh_name(x, taken | set(env2))
            env2[x] = (x2, {x2})
            return x2, env2
        return x, env2

    def _sigma(self, e: Sigma, env: Env) -> str:
        x, dom, cod = e.binder, e.dom, e.cod
        a = self.model(dom, env)
        x2, env2 = self._under(x, env, cod)
        b = self.model(cod, env2)
        flags = (e.flag1, e.flag2)
        if flags == (0, 1):
            raise Unsupported("no schema for a pair filled right to left")
        avoid = _free(dom, env) | _free(cod, env2) | {x2}
        p = fresh_name("p", avoid)
        if flags == (0, 0):
            self.schemas.add("sigma00")
            refinement = f"(eq {p} (pair None None))"
        elif flags == (1, 0):
            self.schemas.add("sigma10")
            e1 = fresh_name("e1", avoid | {p})
            refinement = f"(exists ({e1} : {a}) (eq {p} (pair (Just {e1}) None)))"
        else:
            self.schemas.add("sigma11")
            e1 = fresh_name("e1", avoid | {p})
            e2 = fresh_name("e2", avoid | {p, e1})
            # the second witness's type: cod with the first witness for x
            b_at_e1 = self.model(cod, {**env, x: (e1, {e1})})
            refinement = (
                f"(exists ({e1} : {a}) (exists ({e2} : {b_at_e1})"
                f" (eq {p} (pair (Just {e1}) (Just {e2})))))"
            )
        return f"(sigma ({p} : (sigma ({x2} : (Maybe {a})) (Maybe {b}))) {refinement})"


_HELPER_DOCS = {
    "maybe-fst": "; maybe-fst : packed tuple ((ma, mb), prf) -> value under Just in ma",
    "maybe-snd": "; maybe-snd : packed tuple ((ma, mb), prf) -> value under Just in mb",
}


def emit_model(e: Expr) -> str:
    """The full emitted file: a header describing the input and the
    schemas and helpers in play, then the model."""
    from .sexpr import Lang, print_expr

    m = _Modeler()
    body = m.model(e, {})
    lines = [f"; model of: {print_expr(e, Lang.TARGET)}"]
    schemas = " ".join(sorted(m.schemas)) if m.schemas else "none"
    lines.append(f"; schemas: {schemas}")
    for h in sorted(m.helpers):
        lines.append(_HELPER_DOCS[h])
    lines.append(str(body))
    return "\n".join(lines) + "\n"
