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

import json
import random
from dataclasses import dataclass
from pathlib import Path

from . import conversion
from .alloc import translate, translate_ctx
from .errors import ErrKind, FuelExhausted, TypeCheckError
from .heap import UNINIT, Config, Heap, filled, writable
from .sexpr import Lang, parse
from .source import src_check, src_equiv, src_eval, src_infer, src_normalize, src_steps
from .syntax import (
    STAR,
    UNIT,
    UNIT_TY,
    App,
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
    subst,
)
from .target import (
    heap_wf,
    tgt_equiv,
    tgt_eval,
    tgt_infer,
    tgt_normalize,
    tgt_steps,
    tgt_subtype,
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
    """Map an exception to a verdict; conversion fuel counts as fuel."""
    if isinstance(err, FuelExhausted):
        return "fuel", str(err)
    if isinstance(err, TypeCheckError) and err.kind is ErrKind.EQUIV_FAIL:
        return "fuel", err.render()
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
        return src_normalize(ctx, src_infer(ctx, ty))

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
    if not src_equiv(ctx, inferred, ty):
        raise AssertionError(f"generated case claims a wrong type (seed={spec.seed})")
    return ctx, term, ty


def gen_cases(
    count: int, depth: int = 4, seed: int = 0, closed: bool = False
) -> list[tuple[str, Context, Expr, Expr]]:
    out = []
    for i in range(count):
        ctx, term, ty = gen_typed(GenSpec(depth=depth, seed=seed + i, closed=closed))
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
    src_check(ctx, e_prime, a_ty)
    return ctx, x, a_ty, e, e_prime


# ---------------------------------------------------------------------------
# Checks

def check_preservation(
    case_id: str, ctx: Context, e: Expr, fuel: int = DEFAULT_FUEL
) -> Report:
    prop = "type-preservation"
    try:
        a = src_infer(ctx, e)
        te = translate(ctx, e)
        tctx = translate_ctx(ctx)
        got = tgt_infer(Heap(), tctx, te)
        want = translate(ctx, a)
        ok = tgt_subtype(Heap(), tctx, got, want, fuel=fuel)
    except Exception as err:  # noqa: BLE001 - verdicts, not crashes
        verdict, detail = _classify(err)
        return Report(case_id, prop, verdict, detail)
    if ok:
        return Report(case_id, prop, "pass")
    return Report(case_id, prop, "fail", "compiled type is not below the compiled source type")


def check_subst_commute(
    case_id: str,
    ctx: Context,
    x: str,
    a_ty: Expr,
    e: Expr,
    e_prime: Expr,
    fuel: int = DEFAULT_FUEL,
) -> Report:
    prop = "substitution"
    try:
        lhs = translate(ctx, subst(e, e_prime, x))
        rhs = subst(translate(ctx.extend(x, a_ty), e), translate(ctx, e_prime), x)
        ok = tgt_equiv(Heap(), translate_ctx(ctx), lhs, rhs, fuel=fuel)
    except Exception as err:  # noqa: BLE001
        verdict, detail = _classify(err)
        return Report(case_id, prop, verdict, detail)
    if ok:
        return Report(case_id, prop, "pass")
    return Report(case_id, prop, "fail", "substitution does not commute with compilation")


def check_reduction_preserved(
    case_id: str, e: Expr, e_next: Expr, fuel: int = DEFAULT_FUEL
) -> Report:
    """e steps to e_next in the source; the compiled e must run to a value
    equivalent to the compiled e_next under the final heap."""
    prop = "reduction-preserved"
    try:
        te = translate(Context(), e)
        final = tgt_eval(te, fuel)
        ok = tgt_equiv(final.heap, Context(), final.expr, translate(Context(), e_next), fuel=fuel)
    except Exception as err:  # noqa: BLE001
        verdict, detail = _classify(err)
        return Report(case_id, prop, verdict, detail)
    if ok:
        return Report(case_id, prop, "pass")
    return Report(case_id, prop, "fail", "compiled run disagrees with the stepped program")


def check_differential(case_id: str, e: Expr, fuel: int = DEFAULT_FUEL) -> Report:
    prop = "differential"
    try:
        v = src_eval(e, fuel)
        obs_src = readback(Config(Heap(), v))
        final = tgt_eval(translate(Context(), e), fuel)
        obs_tgt = readback(final)
    except Exception as err:  # noqa: BLE001
        verdict, detail = _classify(err)
        return Report(case_id, prop, verdict, detail)
    if obs_src == obs_tgt:
        return Report(case_id, prop, "pass")
    return Report(case_id, prop, "fail", f"source saw {obs_src} but target saw {obs_tgt}")


def _heap_transition_problems(old: Heap, new: Heap) -> list[str]:
    problems = []
    if len(new.cells) < len(old.cells):
        problems.append("heap shrank")
    for i, (old_cell, new_cell) in enumerate(zip(old.cells, new.cells)):
        if new_cell is old_cell:  # a cell the step did not write
            continue
        # flags unchanged, or exactly one permitted write
        ty = old_cell.cell_type
        legal = [ty] + [filled(ty, k) for k in (1, 2) if writable(ty, k)]
        if new_cell.flags not in [(t.flag1, t.flag2) for t in legal]:
            problems.append(
                f"cell {i}: illegal flag transition {old_cell.flags} -> {new_cell.flags}"
            )
        for k in (1, 2):
            old_slot, new_slot = old_cell.slot(k), new_cell.slot(k)
            if old_slot is not UNINIT:
                if new_slot is UNINIT or not alpha_eq(old_slot, new_slot):
                    problems.append(f"cell {i}: slot {k} was rewritten")
    return problems


def check_step_preservation(case_id: str, e: Expr, fuel: int = DEFAULT_FUEL) -> Report:
    """Type every machine state of the compiled program and audit the heap."""
    prop = "step-preservation"
    try:
        te = translate(Context(), e)
        steps = tgt_steps(te, fuel)
        prev_cfg: Config | None = None
        prev_ty: Expr | None = None
        for cfg, _rule in steps:
            # heaps are immutable and an audited heap has no (0,1) cell, so a
            # step that kept its heap object passes both audits again
            if prev_cfg is None or cfg.heap is not prev_cfg.heap:
                bad = heap_wf(cfg.heap).problems
                if not bad and prev_cfg is not None:
                    bad = _heap_transition_problems(prev_cfg.heap, cfg.heap)
                if bad:
                    return Report(case_id, prop, "fail", "; ".join(bad))
            ty = tgt_infer(cfg.heap, Context(), cfg.expr)
            if prev_ty is not None and not tgt_subtype(cfg.heap, Context(), ty, prev_ty, fuel=fuel):
                return Report(case_id, prop, "fail", "type grew across a machine step")
            prev_cfg, prev_ty = cfg, ty
    except Exception as err:  # noqa: BLE001
        verdict, detail = _classify(err)
        return Report(case_id, prop, verdict, detail)
    return Report(case_id, prop, "pass")


def check_sort_preservation(
    case_id: str, ctx: Context, ty: Expr, fuel: int = DEFAULT_FUEL
) -> Report:
    """A type's universe survives compilation."""
    prop = "sort-preservation"
    try:
        s_src = src_normalize(ctx, src_infer(ctx, ty), fuel)
        if not isinstance(s_src, Univ):
            return Report(case_id, prop, "pass", "not a type; nothing to check")
        tctx = translate_ctx(ctx)
        t_ty = translate(ctx, ty)
        s_tgt = tgt_normalize(Heap(), tctx, tgt_infer(Heap(), tctx, t_ty), fuel)
        ok = isinstance(s_tgt, Univ) and s_tgt.kind == s_src.kind
    except Exception as err:  # noqa: BLE001
        verdict, detail = _classify(err)
        return Report(case_id, prop, verdict, detail)
    if ok:
        return Report(case_id, prop, "pass")
    return Report(case_id, prop, "fail", "compiled type changed universe")


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
