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
becomes a curried function.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    Universe,
    Var,
    fresh_name,
)


class Unsupported(Exception):
    """Raised for terms the model does not cover."""


# ---------------------------------------------------------------------------
# Model expressions

@dataclass(frozen=True)
class ModelExpr:
    pass


@dataclass(frozen=True)
class MVar(ModelExpr):
    name: str


@dataclass(frozen=True)
class MConst(ModelExpr):
    name: str


@dataclass(frozen=True)
class MPi(ModelExpr):
    binder: str
    dom: ModelExpr
    body: ModelExpr


@dataclass(frozen=True)
class MSigma(ModelExpr):
    binder: str
    dom: ModelExpr
    body: ModelExpr


@dataclass(frozen=True)
class MExists(ModelExpr):
    binder: str
    dom: ModelExpr
    body: ModelExpr


@dataclass(frozen=True)
class MLam(ModelExpr):
    binder: str
    dom: ModelExpr
    body: ModelExpr


@dataclass(frozen=True)
class MApp(ModelExpr):
    fn: ModelExpr
    arg: ModelExpr


@dataclass(frozen=True)
class MPair(ModelExpr):
    fst: ModelExpr
    snd: ModelExpr


@dataclass(frozen=True)
class MFst(ModelExpr):
    expr: ModelExpr


@dataclass(frozen=True)
class MSnd(ModelExpr):
    expr: ModelExpr


@dataclass(frozen=True)
class MEq(ModelExpr):
    lhs: ModelExpr
    rhs: ModelExpr


@dataclass(frozen=True)
class MMaybe(ModelExpr):
    ty: ModelExpr


@dataclass(frozen=True)
class MJust(ModelExpr):
    expr: ModelExpr


@dataclass(frozen=True)
class MNone(ModelExpr):
    pass


@dataclass(frozen=True)
class MRefl(ModelExpr):
    pass


def render(m: ModelExpr) -> str:
    match m:
        case MVar(x) | MConst(x):
            return x
        case MPi(b, d, t):
            return f"(pi ({b} : {render(d)}) {render(t)})"
        case MSigma(b, d, t):
            return f"(sigma ({b} : {render(d)}) {render(t)})"
        case MExists(b, d, t):
            return f"(exists ({b} : {render(d)}) {render(t)})"
        case MLam(b, d, t):
            return f"(lam ({b} : {render(d)}) {render(t)})"
        case MApp(f, a):
            return f"({render(f)} {render(a)})"
        case MPair(a, b):
            return f"(pair {render(a)} {render(b)})"
        case MFst(e):
            return f"(fst {render(e)})"
        case MSnd(e):
            return f"(snd {render(e)})"
        case MEq(a, b):
            return f"(eq {render(a)} {render(b)})"
        case MMaybe(t):
            return f"(Maybe {render(t)})"
        case MJust(e):
            return f"(Just {render(e)})"
        case MNone():
            return "None"
        case MRefl():
            return "refl"
    raise TypeError(f"unknown model node: {m!r}")


def mfree(m: ModelExpr) -> set[str]:
    match m:
        case MVar(x):
            return {x}
        case MConst() | MNone() | MRefl():
            return set()
        case MPi(b, d, t) | MSigma(b, d, t) | MExists(b, d, t) | MLam(b, d, t):
            return mfree(d) | (mfree(t) - {b})
        case MApp(a, b) | MPair(a, b) | MEq(a, b):
            return mfree(a) | mfree(b)
        case MFst(e) | MSnd(e) | MMaybe(e) | MJust(e):
            return mfree(e)
    raise TypeError(f"unknown model node: {m!r}")


def msubst(m: ModelExpr, name: str, repl: ModelExpr) -> ModelExpr:
    match m:
        case MVar(x):
            return repl if x == name else m
        case MConst() | MNone() | MRefl():
            return m
        case MPi(b, d, t) | MSigma(b, d, t) | MExists(b, d, t) | MLam(b, d, t):
            ctor = type(m)
            d2 = msubst(d, name, repl)
            if b == name:
                return ctor(b, d2, t)
            if b in mfree(repl):
                b2 = fresh_name(b, mfree(repl) | mfree(t) | {name})
                t = msubst(t, b, MVar(b2))
                b = b2
            return ctor(b, d2, msubst(t, name, repl))
        case MApp(a, b):
            return MApp(msubst(a, name, repl), msubst(b, name, repl))
        case MPair(a, b):
            return MPair(msubst(a, name, repl), msubst(b, name, repl))
        case MEq(a, b):
            return MEq(msubst(a, name, repl), msubst(b, name, repl))
        case MFst(e):
            return MFst(msubst(e, name, repl))
        case MSnd(e):
            return MSnd(msubst(e, name, repl))
        case MMaybe(e):
            return MMaybe(msubst(e, name, repl))
        case MJust(e):
            return MJust(msubst(e, name, repl))
    raise TypeError(f"unknown model node: {m!r}")


# ---------------------------------------------------------------------------
# Translation into the model

_UNIV_NAMES = {Universe.STAR: "Star", Universe.BOX: "Box"}


class _Modeler:
    def __init__(self):
        self.schemas: set[str] = set()
        self.helpers: set[str] = set()

    def model(self, e: Expr, env: dict[str, ModelExpr]) -> ModelExpr:
        match e:
            case Var(x):
                return env.get(x, MVar(x))
            case UnitTm():
                return MConst("unit")
            case UnitTy():
                return MConst("Unit")
            case Univ(u):
                return MConst(_UNIV_NAMES[u])
            case Pi(x, dom, cod):
                d = self.model(dom, env)
                x2, env2 = self._under(x, env)
                return MPi(x2, d, self.model(cod, env2))
            case Sigma():
                return self._sigma(e, env)
            case CodeTy(n, envty, x, argty, body) | Code(n, envty, x, argty, body):
                # code types become curried function types, code curried functions
                former = MPi if isinstance(e, CodeTy) else MLam
                d1 = self.model(envty, env)
                n2, env_n = self._under(n, env)
                d2 = self.model(argty, env_n)
                x2, env_nx = self._under(x, env_n)
                return former(n2, d1, former(x2, d2, self.model(body, env_nx)))
            case App(f, a):
                return MApp(self.model(f, env), self.model(a, env))
            case Let(x, bound, _, body):
                env2 = dict(env)
                env2[x] = self.model(bound, env)
                return self.model(body, env2)
            case Fst(t):
                self.helpers.add("maybe-fst")
                return MApp(MVar("maybe-fst"), self.model(t, env))
            case Snd(t):
                self.helpers.add("maybe-snd")
                return MApp(MVar("maybe-snd"), self.model(t, env))
            case Malloc():
                return MPair(MPair(MNone(), MNone()), MRefl())
            case Assign1(t, v) | Assign2(t, v):
                # the tuple's two maybe-slots, with the written one replaced
                mt = self.model(t, env)
                mv = self.model(v, env)
                if isinstance(mt, MPair) and isinstance(mt.fst, MPair):
                    slots = [mt.fst.fst, mt.fst.snd]
                else:
                    slots = [MFst(MFst(mt)), MSnd(MFst(mt))]
                slots[SLOT[type(e)] - 1] = MJust(mv)
                return MPair(MPair(*slots), MRefl())
            case CTag(t):
                return self.model(t, env)
            case Loc():
                raise Unsupported("run-time locations have no model")
            case Pair() | Clo():
                raise Unsupported(f"{type(e).__name__.lower()} is not a target form")
        raise TypeError(f"unknown expression node: {e!r}")

    def _under(self, x: str, env: dict[str, ModelExpr]):
        """Descend below a binder: drop any inlined definition it shadows
        and rename it away from names free in the remaining ones."""
        env2 = {k: v for k, v in env.items() if k != x}
        taken = set()
        for v in env2.values():
            taken |= mfree(v)
        if x in taken:
            x2 = fresh_name(x, taken | set(env2))
            env2[x] = MVar(x2)
            return x2, env2
        return x, env2

    def _sigma(self, e: Sigma, env: dict[str, ModelExpr]) -> ModelExpr:
        a = self.model(e.dom, env)
        x2, env2 = self._under(e.binder, env)
        b = self.model(e.cod, env2)
        flags = (e.flag1, e.flag2)
        if flags == (0, 1):
            raise Unsupported("no schema for a pair filled right to left")
        packed = MSigma(x2, MMaybe(a), MMaybe(b))
        avoid = mfree(packed) | {x2}
        p = fresh_name("p", avoid)
        if flags == (0, 0):
            self.schemas.add("sigma00")
            refinement = MEq(MVar(p), MPair(MNone(), MNone()))
        elif flags == (1, 0):
            self.schemas.add("sigma10")
            e1 = fresh_name("e1", avoid | {p})
            refinement = MExists(e1, a, MEq(MVar(p), MPair(MJust(MVar(e1)), MNone())))
        else:
            self.schemas.add("sigma11")
            e1 = fresh_name("e1", avoid | {p})
            e2 = fresh_name("e2", avoid | {p, e1})
            b_at_e1 = msubst(b, x2, MVar(e1))
            refinement = MExists(
                e1,
                a,
                MExists(
                    e2, b_at_e1, MEq(MVar(p), MPair(MJust(MVar(e1)), MJust(MVar(e2))))
                ),
            )
        return MSigma(p, packed, refinement)


_HELPER_DOCS = {
    "maybe-fst": "; maybe-fst : packed tuple ((ma, mb), prf) -> value under Just in ma",
    "maybe-snd": "; maybe-snd : packed tuple ((ma, mb), prf) -> value under Just in mb",
}


def model_expr(e: Expr) -> ModelExpr:
    """The model of a closed target term or type."""
    return _Modeler().model(e, {})


def emit_model(e: Expr) -> str:
    """The full emitted file: a header describing the input and the
    schemas and helpers in play, then the rendered model."""
    from .sexpr import Lang, print_expr

    m = _Modeler()
    body = m.model(e, {})
    lines = [f"; model of: {print_expr(e, Lang.TARGET)}"]
    schemas = " ".join(sorted(m.schemas)) if m.schemas else "none"
    lines.append(f"; schemas: {schemas}")
    for h in sorted(m.helpers):
        lines.append(_HELPER_DOCS[h])
    lines.append(render(body))
    return "\n".join(lines) + "\n"
