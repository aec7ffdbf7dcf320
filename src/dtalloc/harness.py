"""Property harness: random well-typed programs and compilation checks.

The generator builds source terms together with their types and
validates every case against the checker before handing it out, so a
reported failure is always about compilation, never about a bad case.

Checks, one Report each:
  type-preservation    compiled term types below the compiled type
  substitution         compile-then-substitute equals substitute-then-compile
  reduction-preserved  the compiled program runs to the stepped program's value
  differential         source and target runs produce the same observation
  step-preservation    every machine state stays well-typed with a sane heap
  sort-preservation    compiled types keep their universe
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from operator import is_
from pathlib import Path

from . import conversion
from .alloc import translate, translate_ctx
from .errors import FuelExhausted, StuckError, TypeCheckError
from .heap import UNINIT, Config, Heap, filled, locs_in, writable
from .machine import CONTRACTED, contract
from .sexpr import Lang, parse
from .source import src_eval, src_infer, src_steps
from .syntax import (
    _ARGS,
    _CHILD_ARGS,
    _CHILD_FIELDS,
    STAR,
    UNIT,
    UNIT_TY,
    App,
    Assign1,
    Assign2,
    Clo,
    Code,
    CodeTy,
    Context,
    CTag,
    Expr,
    Fst,
    Let,
    Loc,
    Pair,
    Pi,
    Sigma,
    Snd,
    UnitTm,
    UnitTy,
    Univ,
    Var,
    alpha_eq,
    heap_free,
    kept,
    subst,
)
from .target import (
    check,
    heap_wf,
    tgt_eval,
    tgt_infer,
    tgt_infer_checking,
    tgt_steps,
)

DEFAULT_FUEL = conversion.DEFAULT_FUEL


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Report:
    case_id: str
    prop: str
    verdict: str  # "pass" | "fail" | "fuel"
    detail: str = ""

    def line(self) -> str:
        return f"CASE {self.case_id} {self.prop} {self.verdict}"

    def to_json(self) -> str:
        return json.dumps(
            {
                "case": self.case_id,
                "prop": self.prop,
                "verdict": self.verdict,
                "detail": self.detail,
            },
            sort_keys=True,
        )


def verdict_counts(reports: list[Report]) -> dict[str, int]:
    """How many reports passed, failed and ran out of fuel, in that order."""
    verdicts = [r.verdict for r in reports]
    return {
        "passed": verdicts.count("pass"),
        "failed": verdicts.count("fail"),
        "fuel": verdicts.count("fuel"),
    }


def summary_line(reports: list[Report]) -> str:
    return " ".join(f"{k}={n}" for k, n in verdict_counts(reports).items())


def _classify(err: Exception) -> tuple[str, str]:
    """Map an exception to a verdict. Running out of the step budget,
    whether a machine, a normalization or a conversion query inside typing
    or a heap audit ran out, counts as fuel, and so does running out of
    stack: neither says anything about the compiler."""
    if isinstance(err, FuelExhausted):
        return "fuel", str(err)
    if isinstance(err, RecursionError):
        return "fuel", "input nests too deeply"
    if isinstance(err, TypeCheckError):
        return "fail", err.render()
    return "fail", str(err)


# ---------------------------------------------------------------------------
# Generation

@dataclass
class GenSpec:
    depth: int = 4
    seed: int = 0
    closed: bool = False


_SIGMA_WW = Sigma("w", UNIT_TY, 1, UNIT_TY, 1)
_PI_WW = Pi("w", UNIT_TY, UNIT_TY)
_ID_CLO = Clo(
    Code("en", UNIT_TY, "ex", UNIT_TY, Var("ex")),
    UNIT,
    Pi("ex", UNIT_TY, UNIT_TY),
)


def _ctx_menu(rng: random.Random) -> Context:
    ctx = Context()
    if rng.random() < 0.5:
        ctx = ctx.extend("a", UNIT_TY)
    if rng.random() < 0.35:
        ctx = ctx.extend("p", _SIGMA_WW)
    if rng.random() < 0.35:
        ctx = ctx.extend("f", _PI_WW)
    return ctx


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh_i = 0

    def fresh(self) -> str:
        name = f"v{self.fresh_i}"
        self.fresh_i += 1
        return name

    def _sort(self, ctx: Context, ty: Expr) -> Univ:
        return conversion.normalize(ctx, src_infer(ctx, ty))

    def gen(self, ctx: Context, depth: int) -> tuple[Expr, Expr]:
        """A term and its type, valid in ctx."""
        rng = self.rng
        prods = ["unit", "unit", "unit", "tyunit"]
        if len(ctx):
            prods += ["var", "var"]
        if any(isinstance(b.ty, Pi) for b in ctx):
            prods += ["app_ctx"]
        if depth > 0:
            prods += [
                "pair_simple", "pair_simple",
                "pair_dep_let",
                "pair_dep_kind",
                "proj", "proj",
                "let", "let",
                "clo", "clo",
            ]
        match rng.choice(prods):
            case "unit":
                return UNIT, UNIT_TY
            case "tyunit":
                return UNIT_TY, STAR
            case "var":
                b = rng.choice(list(ctx.entries))
                return Var(b.name), b.ty
            case "app_ctx":
                b = rng.choice([b for b in ctx if isinstance(b.ty, Pi)])
                arg, _ = self._value_of(ctx, b.ty.dom)
                return App(Var(b.name), arg), subst(b.ty.cod, arg, b.ty.binder)
            case "pair_simple":
                return self._pair_simple(ctx, depth)
            case "pair_dep_let":
                x, z = self.fresh(), self.fresh()
                sig = Sigma(x, UNIT_TY, 1, Let(z, Var(x), UNIT_TY, UNIT_TY), 1)
                return Pair(UNIT, UNIT, sig), sig
            case "pair_dep_kind":
                x_binder, y, n = self.fresh(), self.fresh(), self.fresh()
                clo = Clo(
                    Code(n, UNIT_TY, y, UNIT_TY, UNIT_TY),
                    UNIT,
                    Pi(y, UNIT_TY, STAR),
                )
                sig = Sigma(x_binder, STAR, 1, Pi(y, Var(x_binder), STAR), 1)
                return Pair(UNIT_TY, clo, sig), sig
            case "proj":
                p, sig = self._pair_simple(ctx, depth)
                if rng.random() < 0.5:
                    return Fst(p), sig.dom
                return Snd(p), subst(sig.cod, Fst(p), sig.binder)
            case "let":
                e1, t1 = self.gen(ctx, depth - 1)
                x = self.fresh()
                if rng.random() < 0.4:
                    body, tb = Var(x), t1
                else:
                    body, tb = self.gen(ctx.extend(x, t1, defn=e1), depth - 1)
                return Let(x, e1, t1, body), subst(tb, e1, x)
            case "clo":
                return self._clo(ctx, depth)
        raise AssertionError("unreachable")

    def _pair_simple(self, ctx: Context, depth: int) -> tuple[Pair, Sigma]:
        e1, t1 = self.gen(ctx, depth - 1)
        e2, t2 = self.gen(ctx, depth - 1)
        s1 = self._sort(ctx, t1)
        s2 = self._sort(ctx, t2)
        if not alpha_eq(s1, s2):
            e2, t2 = (UNIT, UNIT_TY) if alpha_eq(s1, STAR) else (UNIT_TY, STAR)
        b = self.fresh()
        sig = Sigma(b, t1, 1, t2, 1)
        return Pair(e1, e2, sig), sig

    def _clo(self, ctx: Context, depth: int) -> tuple[Expr, Expr]:
        rng = self.rng
        n, x = self.fresh(), self.fresh()
        env_ty = rng.choice([UNIT_TY, UNIT_TY, _SIGMA_WW])
        arg_ty = UNIT_TY
        body, body_ty = rng.choice(
            [(Var(n), env_ty), (Var(x), arg_ty), (UNIT, UNIT_TY)]
        )
        code = Code(n, env_ty, x, arg_ty, body)
        env_val, _ = self._value_of(ctx, env_ty)
        annot = Pi(x, arg_ty, body_ty)
        clo = Clo(code, env_val, annot)
        if depth > 1 and rng.random() < 0.5:
            arg, _ = self._value_of(ctx, arg_ty)
            return App(clo, arg), subst(annot.cod, arg, annot.binder)
        return clo, annot

    def _value_of(self, ctx: Context, ty: Expr) -> tuple[Expr, Expr]:
        """A simple inhabitant of a menu type."""
        rng = self.rng
        if alpha_eq(ty, UNIT_TY):
            named = [b for b in ctx if alpha_eq(b.ty, UNIT_TY)]
            if named and rng.random() < 0.4:
                b = rng.choice(named)
                return Var(b.name), b.ty
            return UNIT, UNIT_TY
        if alpha_eq(ty, _SIGMA_WW):
            return Pair(UNIT, UNIT, _SIGMA_WW), _SIGMA_WW
        if alpha_eq(ty, _PI_WW):
            return _ID_CLO, _PI_WW
        if alpha_eq(ty, STAR):
            return UNIT_TY, STAR
        raise AssertionError(f"no inhabitant recipe for {ty!r}")


def gen_typed(spec: GenSpec) -> tuple[Context, Expr, Expr]:
    """One random well-typed case (ctx, term, type), checker-validated."""
    rng = random.Random(spec.seed)
    ctx = Context() if spec.closed else _ctx_menu(rng)
    g = _Gen(rng)
    term, ty = g.gen(ctx, spec.depth)
    inferred = src_infer(ctx, term)
    if not conversion.equiv(ctx, inferred, ty):
        raise AssertionError(f"generated case claims a wrong type (seed={spec.seed})")
    return ctx, term, ty


def gen_cases(count: int, depth: int = 4, seed: int = 0) -> list[tuple[str, Context, Expr, Expr]]:
    out = []
    for i in range(count):
        ctx, term, ty = gen_typed(GenSpec(depth=depth, seed=seed + i))
        out.append((f"gen{seed + i}", ctx, term, ty))
    return out


def gen_lemma4(spec: GenSpec) -> tuple[Context, str, Expr, Expr, Expr]:
    """A substitution scenario: ctx, a variable with its type, a term open
    in that variable, and a replacement checked against the type."""
    rng = random.Random(spec.seed)
    ctx = _ctx_menu(rng)
    a_ty = rng.choice([UNIT_TY, UNIT_TY, _SIGMA_WW, _PI_WW])
    x = "xs"
    ctx_x = ctx.extend(x, a_ty)
    g = _Gen(rng)
    e, _ = g.gen(ctx_x, spec.depth)
    e_prime, _ = g._value_of(ctx, a_ty)
    src_infer(ctx_x, e)
    check(Lang.SOURCE, Heap(), ctx, e_prime, a_ty)
    return ctx, x, a_ty, e, e_prime


# ---------------------------------------------------------------------------
# Checks

def _judged(prop: str):
    """Make a check of prop from its body, which returns the failure text,
    None when the check passes, or a (verdict, detail) pair: the check
    returns the body's Report, and an exception the body raises is
    classified."""

    def judged(body):
        @functools.wraps(body)
        def check(case_id: str, *args, **kwargs) -> Report:
            try:
                failure = body(case_id, *args, **kwargs)
            except Exception as err:  # noqa: BLE001 - verdicts, not crashes
                return Report(case_id, prop, *_classify(err))
            if failure is None:
                return Report(case_id, prop, "pass")
            if isinstance(failure, tuple):
                return Report(case_id, prop, *failure)
            return Report(case_id, prop, "fail", failure)

        return check

    return judged


@_judged("type-preservation")
def check_preservation(
    case_id: str, ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL
) -> str | None:
    a = src_infer(ctx, e)
    te = translate(ctx, e)
    tctx = translate_ctx(ctx)
    got = tgt_infer(Heap(), tctx, te)
    want = translate(ctx, a)
    if not conversion.subtype(tctx, got, want, fuel=fuel):
        return "compiled type is not below the compiled source type"


@_judged("substitution")
def check_subst_commute(
    case_id: str,
    ctx: Context,
    x: str,
    a_ty: Expr,
    e: Expr,
    e_prime: Expr,
    fuel: int = DEFAULT_FUEL,
) -> str | None:
    lhs = translate(ctx, subst(e, e_prime, x))
    rhs = subst(translate(ctx.extend(x, a_ty), e), translate(ctx, e_prime), x)
    if not conversion.equiv(translate_ctx(ctx), lhs, rhs, fuel=fuel):
        return "substitution does not commute with compilation"


@_judged("reduction-preserved")
def check_reduction_preserved(
    case_id: str, e: Expr, e_next: Expr, fuel: int = DEFAULT_FUEL
) -> str | None:
    """e steps to e_next in the source; the compiled e must run to a value
    equivalent to the compiled e_next under the final heap."""
    final = tgt_eval(translate(Context(), e), fuel)
    want = translate(Context(), e_next)
    if not conversion.equiv(Context(), final.expr, want, final.heap, fuel):
        return "compiled run disagrees with the stepped program"


@_judged("differential")
def check_differential(case_id: str, e: Expr, fuel: int = DEFAULT_FUEL) -> str | None:
    obs_src = readback(Config(Heap(), src_eval(e, fuel)))
    obs_tgt = readback(tgt_eval(translate(Context(), e), fuel))
    if obs_src != obs_tgt:
        return f"source saw {obs_src} but target saw {obs_tgt}"


def _heap_transition_problems(old: Heap, new: Heap) -> list[str]:
    problems = []
    if len(new.cells) < len(old.cells):
        problems.append("heap shrank")
    for i, (old_cell, new_cell) in enumerate(zip(old.cells, new.cells)):
        if new_cell is old_cell:  # a cell the step did not write
            continue
        # the cell type unchanged, or exactly one permitted write, which
        # sets one flag and keeps the parts
        ty = old_cell.cell_type
        legal = [ty] + [filled(ty, k) for k in (1, 2) if writable(ty, k)]
        if new_cell.flags not in [(t.flag1, t.flag2) for t in legal]:
            problems.append(
                f"cell {i}: illegal flag transition {old_cell.flags} -> {new_cell.flags}"
            )
        elif not any(alpha_eq(new_cell.cell_type, t) for t in legal):
            problems.append(f"cell {i}: the parts of its pair type were rewritten")
        for k in (1, 2):
            old_slot, new_slot = old_cell.slot(k), new_cell.slot(k)
            if old_slot is not UNINIT:
                if new_slot is UNINIT or not alpha_eq(old_slot, new_slot):
                    problems.append(f"cell {i}: slot {k} was rewritten")
    return problems


def _object_ids(ty: Expr) -> set[int]:
    """The ids of ty and of every object below it; shared subterms are
    visited once. ty holds them all, so no id is reused while ty lives."""
    seen, todo = set(), [ty]
    while todo:
        cur = todo.pop()
        if id(cur) not in seen:
            seen.add(id(cur))
            todo.extend(getattr(cur, f) for f in _CHILD_FIELDS[type(cur)])
    return seen


def _mentions_heap_or(ty: Expr, node: Expr) -> bool:
    """Whether ty holds a location, an allocation or an assignment, or the
    very object node; ty's objects are collected once per type object,
    which consecutive kept steps share."""
    return not heap_free(ty) or id(node) in kept(ty, "_object_ids", _object_ids, ty)


# the frames (node type, hole) that check their hole against a type read
# from their other children, so that their type never reads the hole's type
_CHECKING_HOLES = {(Let, "bound"), (App, "arg"), (Assign1, "value"), (Assign2, "value")}


def _contracts_to(heap: Heap, redex: Expr, heap2: Heap, c: Expr) -> bool:
    """Whether the contraction rules, which conversion contracts by too,
    take redex against heap to c against heap2. The result a traced run
    kept on redex is read when that run contracted by this very binding
    of contract against this very heap; else the rules run again."""
    memo = redex.__dict__.get(CONTRACTED)
    if memo is not None and memo[0] is contract and memo[1] is heap:
        r = memo[2]
    else:
        try:
            r = contract(heap, redex)
        except StuckError:
            return False
    return r is not None and (r[1] is c or r[1] == c) and (
        r[0] is heap2 or r[0].cells == heap2.cells)


def _exposes_let(redex: Expr, c: Expr) -> bool:
    """Whether redex is let x = v : A in (let x' = e : A' in b) and c a let
    that holds A' and b, the very objects of the redex. When c is also the
    let rule's contractum of a closed state, that implies the rest: v is
    closed, so no binder is renamed, and A'[v/x] and b[v/x] are A' and b
    only when x is free in neither, so c is let x' = e[v/x] : A' in b."""
    return (type(redex) is Let and type(redex.body) is Let and type(c) is Let
            and c.annot is redex.body.annot and c.body is redex.body.body)


def _carried(ty: Expr, frames: list, redex: Expr, expr: Expr) -> Expr:
    """ty with each frame node and the redex, objects of the state before a
    step, replaced by the node that stands in its place in expr, the state
    after it: the frames' nodes found down their holes, and the contractum
    at their end. Both states are closed, so nothing is captured; a node
    with nothing replaced below it is kept as it is."""
    new, node = {}, expr
    for old, hole, _ in frames:
        new[id(old)] = node
        node = getattr(node, hole)
    new[id(redex)] = node
    return _replaced(ty, new)


def _replaced(e: Expr, new: dict) -> Expr:
    """e with new[id(n)] in place of each node n it holds, by identity; new
    also keeps what each visited node became."""
    r = new.get(id(e))
    if r is None:
        cls = type(e)
        r = e
        if _CHILD_ARGS[cls]:
            old = _ARGS[cls](e)
            args = list(old)
            for c, _ in _CHILD_ARGS[cls]:
                args[c] = _replaced(args[c], new)
            if not all(map(is_, args, old)):
                r = cls(*args)
        new[id(e)] = r
    return r


def _step_keeps_type(prev: Config, prev_ty: Expr, cfg: Config) -> Expr | None:
    """The type of cfg when the machine step from prev, whose state type is
    prev_ty, to cfg keeps that state type, else None: the caller then types
    the whole state. cfg.step records the frames around the redex and the
    redex, objects of prev's term, and the contractum, which cfg's term
    holds at the end of the frames' holes.

    By the replacement lemma (Wright and Felleisen, "A Syntactic Approach
    to Type Soundness", 1994) the state type is kept when
      - the step is the rules' contraction (_contracts_to), so each frame's
        new node converts to its old one;
      - every location in prev_ty names a cell of prev's heap: synthesis
        normalizes on a scratch heap whose cells come after those, so a
        location past them would mean another cell once the heap grows;
      - no frame holds a location of a cell the step wrote outside its hole;
      - the innermost frame that checks its hole (_CHECKING_HOLES), with the
        let that a let step exposes (_exposes_let) as one frame more, checks
        what now fills the hole: the contractum plugged into the frames below.
    The type kept is prev_ty carried onto cfg's term (_carried) when it
    holds a location, an allocation or an assignment, or the redex, else
    prev_ty itself."""
    frames, redex, c = cfg.step
    if any(i >= len(prev.heap.cells) for i in locs_in(prev_ty)):
        return None
    checking = [*frames, (c, "bound", 0)] if _exposes_let(redex, c) else frames
    j = len(checking) - 1
    while j >= 0 and (type(checking[j][0]), checking[j][1]) not in _CHECKING_HOLES:
        j -= 1
    if j < 0:
        return None
    # a cell the step allocated is named nowhere else: a location types
    # only once its cell exists, and heaps do not shrink
    cells = zip(prev.heap.cells, cfg.heap.cells) if cfg.heap is not prev.heap else ()
    written = {i for i, (a, b) in enumerate(cells) if a is not b}
    if written and any(not written.isdisjoint(locs_in(getattr(node, f)))
                       for node, hole, _ in checking for f in _CHILD_FIELDS[type(node)] if f != hole):
        return None
    node = cfg.expr  # the state's node at frame j, found down the holes
    for _, hole, _ in checking[:j]:
        node = getattr(node, hole)
    try:
        if not _contracts_to(prev.heap, redex, cfg.heap, c):
            return None
        if type(node) is Let:
            check(Lang.TARGET, cfg.heap, Context(), node.bound, node.annot)
        else:
            tgt_infer_checking(cfg.heap, Context(), node)
        if _mentions_heap_or(prev_ty, redex):
            return _carried(prev_ty, frames, redex, cfg.expr)
        return prev_ty
    except (TypeCheckError, FuelExhausted, RecursionError):
        return None


@_judged("step-preservation")
def check_step_preservation(
    case_id: str, e: Expr, fuel: int = DEFAULT_FUEL, *, local: bool = True
) -> str | None:
    """Type every machine state of the compiled program and audit the heap.

    Each state's type must lie below the previous state's. By default a
    step is checked where the machine took it (_step_keeps_type), and the
    whole state is typed again only when that check cannot show the type
    kept; local=False types every whole state, the oracle that tests
    compare the default with. Both report the same failures, since every
    failure is found by typing the whole state."""
    prev_cfg: Config | None = None
    prev_ty: Expr | None = None
    for cfg, _rule in tgt_steps(translate(Context(), e), fuel):
        # heaps are immutable and an audited heap has no (0,1) cell, so a
        # step that kept its heap object passes both audits again
        if prev_cfg is None or cfg.heap is not prev_cfg.heap:
            bad = heap_wf(cfg.heap).problems
            if not bad and prev_cfg is not None:
                bad = _heap_transition_problems(prev_cfg.heap, cfg.heap)
            if bad:
                return "; ".join(bad)
        ty = _step_keeps_type(prev_cfg, prev_ty, cfg) if local and prev_cfg is not None else None
        if ty is None:
            ty = tgt_infer(cfg.heap, Context(), cfg.expr)
            if prev_ty is not None and not conversion.subtype(
                Context(), ty, prev_ty, cfg.heap, fuel
            ):
                return "type grew across a machine step"
        prev_cfg, prev_ty = cfg, ty


@_judged("sort-preservation")
def check_sort_preservation(
    case_id: str, ctx: Context, ty: Expr, fuel: int = DEFAULT_FUEL
) -> str | tuple[str, str] | None:
    """A type's universe survives compilation."""
    s_src = conversion.normalize(ctx, src_infer(ctx, ty), fuel=fuel)
    if not isinstance(s_src, Univ):
        return "pass", "not a type; nothing to check"
    tctx = translate_ctx(ctx)
    s_tgt = conversion.normalize(tctx, tgt_infer(Heap(), tctx, translate(ctx, ty)), fuel=fuel)
    if not (isinstance(s_tgt, Univ) and s_tgt.kind == s_src.kind):
        return "compiled type changed universe"


# ---------------------------------------------------------------------------
# Corpus helpers

def load_corpus(dirpath: str | Path) -> list[tuple[str, Expr]]:
    out = []
    for p in sorted(Path(dirpath).glob("*.src")):
        out.append((p.stem, parse(p.read_text(), Lang.SOURCE)))
    return out


def source_step_pairs(e: Expr, fuel: int = DEFAULT_FUEL) -> list[tuple[Expr, Expr]]:
    """All consecutive (term, stepped term) pairs of a source run. Seeing
    that the last term is a value costs one unit of fuel, as a step does."""
    if fuel < 1:
        raise FuelExhausted(fuel)
    try:
        terms = [t for t, _ in src_steps(e, fuel - 1)]
    except FuelExhausted:
        raise FuelExhausted(fuel) from None
    return list(zip(terms, terms[1:]))


# ---------------------------------------------------------------------------
# Observations

def readback(config: Config) -> str:
    """The observable shape of a value: pairs chased through the heap,
    functions and types collapsed to opaque tokens."""
    return _rb(config.heap, config.expr)


def _rb(heap: Heap, e: Expr) -> str:
    match e:
        case UnitTm():
            return "unit"
        case Pair(a, d, _):
            return f"(pair {_rb(heap, a)} {_rb(heap, d)})"
        case Loc(i):
            cell = heap.cell(i)
            if cell is None:
                return "<dangling>"
            s1 = _rb(heap, cell.slot1) if cell.slot1 is not UNINIT else "<uninit>"
            s2 = _rb(heap, cell.slot2) if cell.slot2 is not UNINIT else "<uninit>"
            return f"(pair {s1} {s2})"
        case Clo() | Code() | CTag():
            return "<closure>"
        case Pi() | Sigma() | CodeTy() | Univ() | UnitTy():
            return "<type>"
    return "<stuck>"
