"""The allocation target: type checking, the heap machine, and heap audits.

Pairs and closures do not exist here. A tuple comes into being empty
(malloc), is filled left to right (assign1, then assign2), and the pair
type of the tuple records with two flags how much of it has been filled.
Projection and closure application demand the flags they need, so a
program that reads too early fails to type rather than reading garbage.
The rules of this protocol are stated once, in heap.py.
ctag repackages a fully filled tuple of code and environment as a
function.

Typing is heap-indexed: locations type at the current pair type of their
cell. Unlike source pair types, a target pair type may join components
from different universes; the pair type then lives in the larger one.

The judgement here types both languages. The source is checked by it
with an empty heap, where pair types are fully initialized (flags (1,1))
and the allocation forms are foreign, as pair and closure literals are
in the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import conversion
from .errors import ErrKind, FuelExhausted, StuckError, TypeCheckError
from .heap import (
    SLOT,
    UNINIT,
    Config,
    Heap,
    HeapCell,
    filled,
    locs_in,
    readable,
    slot_type,
    writable,
)
from .machine import EVAL_FIELDS, Machine
from .sexpr import Lang, print_expr
from .syntax import (
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
    free_vars,
    heap_free,
    push_binder,
    subst,
    subst_many,
    subterms,
)

# module constants: an identity test on them is cheaper than an enum lookup
_SOURCE = Lang.SOURCE
_TARGET = Lang.TARGET


def _not_a_source_form(e: Expr) -> str:
    return f"{type(e).__name__.lower()} is not a source form"


def _partial_in_source(e: Sigma) -> str | None:
    if (e.flag1, e.flag2) != (1, 1):
        return "partially initialized pair type in source"
    return None


# The forms one language lacks: node type -> (that language, the message
# that rejects the node, or None where this node is not foreign after all).
_FOREIGN = {
    Malloc: (_SOURCE, _not_a_source_form),
    Assign1: (_SOURCE, _not_a_source_form),
    Assign2: (_SOURCE, _not_a_source_form),
    CTag: (_SOURCE, _not_a_source_form),
    Loc: (_SOURCE, _not_a_source_form),
    Sigma: (_SOURCE, _partial_in_source),
    Pair: (_TARGET, lambda e: "pair literal must be compiled to allocation"),
    Clo: (_TARGET, lambda e: "closure literal must be compiled to allocation"),
}


def _reject_foreign(lang: Lang, e: Expr) -> None:
    entry = _FOREIGN.get(type(e))
    if entry is not None and entry[0] is lang:
        message = entry[1](e)
        if message is not None:
            raise TypeCheckError(ErrKind.LANG_VIOLATION, message, e.pos)


def wf(lang: Lang, e: Expr) -> None:
    """Reject syntactically every form that lang lacks."""
    for cur in subterms(e):
        _reject_foreign(lang, cur)


def tgt_wf(e: Expr) -> None:
    wf(_TARGET, e)


def tgt_equiv(
    heap: Heap, ctx: Context, a: Expr, b: Expr, fuel: int = conversion.DEFAULT_FUEL
) -> bool:
    return conversion.equiv(ctx.defs(), a, b, heap=heap, fuel=fuel)


def tgt_subtype(
    heap: Heap, ctx: Context, small: Expr, big: Expr, fuel: int = conversion.DEFAULT_FUEL
) -> bool:
    return conversion.subtype(ctx.defs(), small, big, heap=heap, fuel=fuel)


def tgt_normalize(
    heap: Heap, ctx: Context, e: Expr, fuel: int = conversion.DEFAULT_FUEL
) -> Expr:
    return conversion.normalize(ctx.defs(), e, heap=heap, fuel=fuel)


def _norm_ty(heap: Heap, ctx: Context, ty: Expr, pos) -> Expr:
    try:
        return tgt_normalize(heap, ctx, ty)
    except FuelExhausted:
        raise TypeCheckError(ErrKind.EQUIV_FAIL, "type normalization ran out of fuel", pos)


# heads that normalization keeps, flags included
_SHOWN = (Pi, Sigma, CodeTy, Univ, UnitTy)


def _head(heap: Heap, ctx: Context, ty: Expr, pos) -> Expr:
    """ty as it stands when its head is already a type former, else its
    normal form."""
    return ty if isinstance(ty, _SHOWN) else _norm_ty(heap, ctx, ty, pos)


def _ensure_subtype(heap: Heap, ctx: Context, inferred: Expr, expected: Expr, pos, what: str):
    try:
        ok = tgt_subtype(heap, ctx, inferred, expected)
    except FuelExhausted:
        raise TypeCheckError(ErrKind.EQUIV_FAIL, f"conversion ran out of fuel for {what}", pos)
    if not ok:
        raise TypeCheckError(ErrKind.SUBTYPE_FAIL, f"{what} has the wrong type", pos)


def _ensure_equiv(heap: Heap, ctx: Context, got: Expr, want: Expr, pos, what: str) -> None:
    try:
        ok = tgt_equiv(heap, ctx, got, want)
    except FuelExhausted:
        raise TypeCheckError(ErrKind.EQUIV_FAIL, f"conversion ran out of fuel for {what}", pos)
    if not ok:
        raise TypeCheckError(
            ErrKind.ANNOT_MISMATCH, f"{what} does not match its required type", pos
        )


def _sort_of(lang: Lang, heap: Heap, ctx: Context, e: Expr, what: str) -> Universe:
    """The universe of type e; in the target, kept on e when e is closed
    and heap-free.

    Such a type reads nothing from the context or the heap, so its target
    universe is the same wherever it is asked for. Source answers are not
    kept: the source rejects a pair type over two universes that the
    target accepts. Failures are not kept: their messages may name
    context-dependent binders.
    """
    if lang is not _TARGET:
        # not through _infer_sort: one frame fewer per level of a source type
        return _universe(_head(heap, ctx, _synth(lang, heap, ctx, e, _head), e.pos), e, what)
    s = e.__dict__.get("_tgt_sort")
    if s is None:
        s = _infer_sort(lang, heap, ctx, e, what)
        if not free_vars(e) and heap_free(e):
            object.__setattr__(e, "_tgt_sort", s)
    return s


def _infer_sort(lang: Lang, heap: Heap, ctx: Context, e: Expr, what: str) -> Universe:
    # a universe query reads only the head, so it runs in checking mode
    return _universe(_head(heap, ctx, _synth(lang, heap, ctx, e, _head), e.pos), e, what)


def _universe(t: Expr, e: Expr, what: str) -> Universe:
    """The universe that t, the type of type e with its head shown, names."""
    if isinstance(t, Univ):
        return t.kind
    raise TypeCheckError(ErrKind.UNIVERSE_ERROR, f"{what} is not a type", e.pos)


def _pair_sort(s1: Universe, s2: Universe) -> Universe:
    # components of different levels join at the larger level
    if s1 == Universe.STAR and s2 == Universe.STAR:
        return Universe.STAR
    return Universe.BOX


def check(lang: Lang, heap: Heap, ctx: Context, e: Expr, ty: Expr) -> None:
    """Check e against ty: synthesis in checking mode, then subtyping."""
    _ensure_subtype(heap, ctx, _synth(lang, heap, ctx, e, _head), ty, e.pos, "term")


def tgt_check(heap: Heap, ctx: Context, e: Expr, ty: Expr) -> None:
    check(_TARGET, heap, ctx, e, ty)


def tgt_infer(heap: Heap, ctx: Context, e: Expr) -> Expr:
    return infer(_TARGET, heap, ctx, e)


def infer(lang: Lang, heap: Heap, ctx: Context, e: Expr) -> Expr:
    """Synthesize the type of a term of lang under the given heap, raising
    TypeCheckError on failure.

    The judgement runs in one of two modes. Synthesis (here) normalizes
    every type that an application, projection or assignment eliminates,
    so the type it returns is the one printed. Checking mode (check, and
    every universe query) only compares the type it synthesizes, so it
    takes an eliminated type as it stands when its head is already a
    function, pair, code, universe or unit type, and normalizes it only
    otherwise. The two modes reach the same verdicts: those arms test
    only the head and the flags, which normalization keeps, and pass the
    parts on to conversion, which normalizes them anyway. ctag and closure
    literals normalize in both modes, since whether a pair type's second
    component mentions its binder can change under conversion.

    Source pair types carry flags (1,1), so the flag checks below never
    fire on a source term. The arms of forms that one language lacks ask
    _FOREIGN first.
    """
    return _synth(lang, heap, ctx, e, _norm_ty)


# typing's flag errors, per slot
_UNREADABLE = {1: "first slot may be uninitialized", 2: "second slot may be uninitialized"}
_UNWRITABLE = {1: "first slot is already initialized",
               2: "second assignment needs a filled first slot and an empty second slot"}


def _synth(lang: Lang, heap: Heap, ctx: Context, e: Expr, view) -> Expr:
    # view shows the head of an eliminated type: _norm_ty in synthesis,
    # _head in checking mode; the mode carries into every subterm whose
    # type only feeds the result
    match e:
        case Var(x):
            b = ctx.lookup(x)
            if b is None:
                raise TypeCheckError(ErrKind.UNBOUND_VAR, f"unbound variable '{x}'", e.pos)
            return b.ty
        case Let(x, bound, annot, body):
            _sort_of(lang, heap, ctx, annot, "let annotation")
            check(lang, heap, ctx, bound, annot)
            ctx2, x2 = push_binder(ctx, x, annot, defn=bound)
            body_ty = _synth(lang, heap, ctx2, subst(body, Var(x2), x), view)
            return subst(body_ty, bound, x2)
        case Univ(Universe.STAR):
            return Univ(Universe.BOX)
        case Univ(Universe.BOX):
            raise TypeCheckError(ErrKind.UNIVERSE_ERROR, "the top universe has no type", e.pos)
        case UnitTy():
            return Univ(Universe.STAR)
        case UnitTm():
            return UnitTy()
        case Pi(x, dom, cod):
            _sort_of(lang, heap, ctx, dom, "function domain")
            ctx2, x2 = push_binder(ctx, x, dom)
            s = _sort_of(lang, heap, ctx2, subst(cod, Var(x2), x), "function codomain")
            return Univ(s)
        case Sigma(x, dom, _, cod, _):
            _reject_foreign(lang, e)
            s1 = _sort_of(lang, heap, ctx, dom, "pair type component")
            ctx2, x2 = push_binder(ctx, x, dom)
            s2 = _sort_of(lang, heap, ctx2, subst(cod, Var(x2), x), "pair type component")
            if s1 is not s2 and lang is _SOURCE:
                raise TypeCheckError(
                    ErrKind.UNIVERSE_ERROR,
                    "pair type components live in different universes",
                    e.pos,
                )
            return Univ(_pair_sort(s1, s2))
        case Code(n, envty, x, argty, body) | CodeTy(n, envty, x, argty, body):
            is_code = isinstance(e, Code)
            _require_closed(e, "code" if is_code else "code type")
            _sort_of(lang, heap, Context(), envty, "code environment type")
            # code is opened in the empty context, so its env binder keeps its name
            ctx_n = Context().extend(n, envty)
            _sort_of(lang, heap, ctx_n, argty, "code argument type")
            ctx_nx, x2 = push_binder(ctx_n, x, argty)
            body2 = subst(body, Var(x2), x)
            if is_code:
                return CodeTy(n, envty, x2, argty, _synth(lang, heap, ctx_nx, body2, view))
            return Univ(_sort_of(lang, heap, ctx_nx, body2, "code result type"))
        case App(f, a):
            fn_ty = view(heap, ctx, _synth(lang, heap, ctx, f, view), f.pos)
            if not isinstance(fn_ty, Pi):
                raise TypeCheckError(
                    ErrKind.NOT_A_FUNCTION, "application of a non-function", f.pos
                )
            check(lang, heap, ctx, a, fn_ty.dom)
            return subst(fn_ty.cod, a, fn_ty.binder)
        case Fst(inner) | Snd(inner):
            i = SLOT[type(e)]
            t = view(heap, ctx, _synth(lang, heap, ctx, inner, view), inner.pos)
            if not isinstance(t, Sigma):
                raise TypeCheckError(ErrKind.NOT_A_PAIR, "projection from a non-pair", inner.pos)
            # snd needs slot 1 readable too: its type reads fst inner
            if not (readable(t, i) and readable(t, 1)):
                raise TypeCheckError(ErrKind.FLAG_ERROR, _UNREADABLE[i], e.pos)
            return slot_type(t, i, inner)
        case Pair(a, d, annot):
            _reject_foreign(lang, e)
            if not isinstance(annot, Sigma):
                raise TypeCheckError(
                    ErrKind.ANNOT_MISMATCH, "pair annotation must be a pair type", e.pos
                )
            _sort_of(lang, heap, ctx, annot, "pair annotation")
            check(lang, heap, ctx, a, annot.dom)
            check(lang, heap, ctx, d, subst(annot.cod, a, annot.binder))
            return annot
        case Clo(c, env, annot):
            _reject_foreign(lang, e)
            code_ty = _norm_ty(heap, ctx, infer(lang, heap, ctx, c), c.pos)
            if not isinstance(code_ty, CodeTy):
                raise TypeCheckError(
                    ErrKind.NOT_A_FUNCTION, "closure over a term that is not code", c.pos
                )
            check(lang, heap, ctx, env, code_ty.env_ty)
            computed = _closure_type(code_ty, env)
            if not isinstance(annot, Pi):
                raise TypeCheckError(
                    ErrKind.ANNOT_MISMATCH, "closure annotation must be a function type", e.pos
                )
            _sort_of(lang, heap, ctx, annot, "closure annotation")
            _ensure_equiv(heap, ctx, annot, computed, e.pos, "closure annotation")
            return annot
        case Loc(i):
            _reject_foreign(lang, e)
            cell = heap.cell(i)
            if cell is None:
                raise TypeCheckError(ErrKind.UNKNOWN_LOC, f"location {i} is not allocated", e.pos)
            return cell.cell_type
        case Malloc(x, t1, t2):
            _reject_foreign(lang, e)
            _sort_of(lang, heap, ctx, t1, "allocated component type")
            ctx2, x2 = push_binder(ctx, x, t1)
            t2r = subst(t2, Var(x2), x)
            _sort_of(lang, heap, ctx2, t2r, "allocated component type")
            return Sigma(x2, t1, 0, t2r, 0)
        case Assign1(t, v) | Assign2(t, v):
            _reject_foreign(lang, e)
            i = SLOT[type(e)]
            ty = view(heap, ctx, _synth(lang, heap, ctx, t, view), t.pos)
            if not isinstance(ty, Sigma):
                raise TypeCheckError(ErrKind.NOT_A_PAIR, "assignment to a non-tuple", t.pos)
            if not writable(ty, i):
                raise TypeCheckError(ErrKind.FLAG_ERROR, _UNWRITABLE[i], e.pos)
            check(lang, heap, ctx, v, slot_type(ty, i, t))
            return filled(ty, i)
        case CTag(t):
            _reject_foreign(lang, e)
            ty = _norm_ty(heap, ctx, infer(lang, heap, ctx, t), t.pos)
            unpaired = TypeCheckError(
                ErrKind.NOT_A_FUNCTION, "ctag expects a code-and-environment pair", t.pos
            )
            if not isinstance(ty, Sigma):
                raise unpaired
            if not (readable(ty, 1) and readable(ty, 2)):
                raise TypeCheckError(ErrKind.FLAG_ERROR, "ctag needs both slots initialized", e.pos)
            code_ty = _norm_ty(heap, ctx, ty.dom, t.pos)
            if not isinstance(code_ty, CodeTy) or ty.binder in free_vars(ty.cod):
                raise unpaired
            try:
                env_ok = tgt_equiv(heap, ctx, ty.cod, code_ty.env_ty)
            except FuelExhausted:
                raise TypeCheckError(
                    ErrKind.EQUIV_FAIL, "conversion ran out of fuel for ctag", e.pos
                )
            if not env_ok:
                raise unpaired
            return _closure_type(code_ty, Snd(t))
    raise TypeError(f"unknown expression node: {e!r}")


def _require_closed(e: Expr, what: str) -> None:
    fv = free_vars(e)
    if fv:
        names = ", ".join(sorted(fv))
        raise TypeCheckError(ErrKind.OPEN_CODE, f"{what} mentions outer variables: {names}", e.pos)


def _closure_type(code_ty: CodeTy, env: Expr) -> Pi:
    """The function type of code closed over env: the code type with env
    substituted for its environment binder, rebuilt as a Pi over the
    argument. A closure's env is its environment value, a tagged tuple's
    its second projection."""
    return subst(Pi(code_ty.arg_binder, code_ty.arg_ty, code_ty.result_ty), env, code_ty.env_binder)


# ---------------------------------------------------------------------------
# The heap machine

_VALUE_FORMS = (UnitTm, UnitTy, Univ, Pi, Sigma, CodeTy, Code, Loc)


def is_tgt_value(e: Expr) -> bool:
    return isinstance(e, _VALUE_FORMS) or (isinstance(e, CTag) and isinstance(e.expr, Loc))


def _cell(heap: Heap, i: int, what: str) -> HeapCell:
    cell = heap.cell(i)
    if cell is None:
        raise StuckError(f"{what} through a dangling location")
    return cell


# the machine's flag errors and rule names, per slot or form
_UNREAD = {1: "first slot is uninitialized", 2: "second slot is uninitialized"}
_UNWRITTEN = {1: "first slot was already written",
              2: "second slot needs a filled first slot and an empty second"}
_NOT_A_TUPLE = {1: "first projection of a non-tuple value",
                2: "second projection of a non-tuple value"}
_RULE = {Fst: "fst-loc", Snd: "snd-loc", Assign1: "assign1", Assign2: "assign2"}


def _contract(heap: Heap, e: Expr) -> tuple[Heap, Expr, str]:
    match e:
        case Let(x, bound, _, body):
            return heap, subst(body, bound, x), "let"
        case App(CTag(Loc(n)), a):
            cell = _cell(heap, n, "application")
            c, env = cell.read(1), cell.read(2)
            if c is None or env is None:
                raise StuckError("application through a partly initialized tuple")
            if not isinstance(c, Code):
                raise StuckError("tagged tuple does not hold code")
            return heap, subst_many(c.body, {c.env_binder: env, c.arg_binder: a}), "app-ctag"
        case App(f, _):
            raise StuckError(f"cannot apply {type(f).__name__}")
        case Fst(Loc(n)) | Snd(Loc(n)):
            i = SLOT[type(e)]
            v = _cell(heap, n, "projection").read(i)
            if v is None:
                raise StuckError(_UNREAD[i])
            return heap, v, _RULE[type(e)]
        case Fst() | Snd():
            raise StuckError(_NOT_A_TUPLE[SLOT[type(e)]])
        case Malloc(x, t1, t2):
            # stored types are not evaluated
            heap2, n = heap.alloc(HeapCell(Sigma(x, t1, 0, t2, 0), UNINIT, UNINIT))
            return heap2, Loc(n), "malloc"
        case Assign1(Loc(n) as t, v) | Assign2(Loc(n) as t, v):
            i = SLOT[type(e)]
            cell = _cell(heap, n, "assignment")
            if not writable(cell.cell_type, i):
                raise StuckError(_UNWRITTEN[i])
            return heap.with_cell(n, cell.write(i, v)), t, _RULE[type(e)]
        case Assign1() | Assign2():
            raise StuckError("assignment to a non-tuple value")
        case CTag():
            raise StuckError("ctag of a non-tuple value")
        case Var(x):
            raise StuckError(f"free variable '{x}' cannot step")
    raise StuckError(f"{type(e).__name__} cannot step in the target machine")


_ASSIGN = ("tuple_", "value")
_MACHINE = Machine({**EVAL_FIELDS, CTag: ("expr",), Assign1: _ASSIGN, Assign2: _ASSIGN},
                   is_tgt_value, _contract)


def _as_config(start: Config | Expr) -> Config:
    return start if isinstance(start, Config) else Config(Heap(), start)


def tgt_step(config: Config) -> tuple[Config, str] | None:
    """One machine step, or None when the expression is a value."""
    r = _MACHINE.step(config.heap, config.expr)
    return None if r is None else (Config(*r[:2]), r[2])


def tgt_eval(start: Config | Expr, fuel: int = conversion.DEFAULT_FUEL) -> Config:
    config = _as_config(start)
    return Config(*_MACHINE.run(config.heap, config.expr, fuel))


def tgt_steps(
    start: Config | Expr, fuel: int = conversion.DEFAULT_FUEL
) -> list[tuple[Config, str]]:
    """The full machine run as (configuration, rule) pairs, starting from
    (start, "init")."""
    config = _as_config(start)
    trace: list = []
    _MACHINE.run(config.heap, config.expr, fuel, trace)
    return [(config, "init")] + [(Config(heap, e), rule) for heap, e, rule in trace]


def tgt_trace(start: Config | Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[str]:
    return [
        f"STEP {k} | {rule} | {print_expr(c.expr, _TARGET)} | {c.heap.summary()}"
        for k, (c, rule) in enumerate(tgt_steps(start, fuel))
    ]


# ---------------------------------------------------------------------------
# Heap audits

@dataclass
class HeapReport:
    ok: bool
    problems: list[str] = field(default_factory=list)


def heap_wf(heap: Heap) -> HeapReport:
    """Audit every cell: flag order, slot presence, value-ness, dangling
    locations, and slot typing against the cell's pair type."""
    problems: list[str] = []
    for i, cell in enumerate(heap.cells):
        where = f"cell {i}"
        if not isinstance(cell.cell_type, Sigma):
            problems.append(f"{where}: cell type is not a pair type")
            continue
        if cell.flags == (0, 1):
            problems.append(f"{where}: second slot filled before the first")
        for k in (1, 2):
            slot, flagged = cell.slot(k), readable(cell.cell_type, k)
            if not flagged and slot is not UNINIT:
                problems.append(f"{where}: slot {k} written but flag is 0")
            if flagged and slot is UNINIT:
                problems.append(f"{where}: slot {k} flagged but empty")
            if slot is not UNINIT:
                if not is_tgt_value(slot):
                    problems.append(f"{where}: slot {k} holds a non-value")
                for loc in sorted(locs_in(slot)):
                    if heap.cell(loc) is None:
                        problems.append(f"{where}: slot {k} mentions dangling location {loc}")
        for loc in sorted(locs_in(cell.cell_type)):
            if heap.cell(loc) is None:
                problems.append(f"{where}: cell type mentions dangling location {loc}")
        for k in (1, 2):
            v = cell.read(k)
            if v is None:
                continue
            try:
                tgt_check(heap, Context(), v, slot_type(cell.cell_type, k, Loc(i)))
            except (TypeCheckError, FuelExhausted) as err:
                problems.append(f"{where}: slot {k} does not type at its slot type ({err})")
    return HeapReport(not problems, problems)
