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
from .errors import ErrKind, TypeCheckError
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
from .machine import EVAL_FIELDS, STUCK, Machine
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
    kept,
    push_binder,
    subst,
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


# kept for perfbench/workloads.py, which calls it by this name
def tgt_subtype(
    heap: Heap, ctx: Context, small: Expr, big: Expr, fuel: int = conversion.DEFAULT_FUEL
) -> bool:
    return conversion.subtype(ctx, small, big, heap, fuel)


def _norm_ty(heap: Heap, ctx: Context, ty: Expr) -> Expr:
    return conversion.normalize(ctx, ty, heap)


# heads that normalization keeps, flags included
_SHOWN = (Pi, Sigma, CodeTy, Univ, UnitTy)


def _head(heap: Heap, ctx: Context, ty: Expr) -> Expr:
    """ty as it stands when its head is already a type former, else its
    normal form."""
    return ty if isinstance(ty, _SHOWN) else _norm_ty(heap, ctx, ty)


def _ensure_subtype(heap: Heap, ctx: Context, inferred: Expr, expected: Expr, pos, what: str):
    if not conversion.subtype(ctx, inferred, expected, heap):
        raise TypeCheckError(ErrKind.SUBTYPE_FAIL, f"{what} has the wrong type", pos)


def _sort_of(lang: Lang, heap: Heap, ctx: Context, e: Expr, what: str) -> Universe:
    """The universe of type e, kept on e when e is closed and heap-free.

    Such a type reads nothing from the context or the heap, so its
    universe is the same wherever it is asked for. Each language keeps
    its own answer: the source rejects a pair type over two universes
    that the target accepts. Failures are not kept: their messages may
    name context-dependent binders.
    """
    if lang is not _TARGET:
        # inline, not through kept: one frame per level of a source type.
        # The source rejects every heap form, and a type it sorts in the
        # empty context has looked up each of its names, so only a
        # nonempty context costs a walk
        d = e.__dict__
        s = d.get("_src_sort")
        if s is None:
            s = _universe(_head(heap, ctx, _synth(lang, heap, ctx, e, _head)), e, what)
            if not ctx.entries or not free_vars(e):
                d["_src_sort"] = s
        return s
    return kept(e, "_tgt_sort", _infer_sort, lang, heap, ctx, e, what, when=_closed_heap_free)


def _closed_heap_free(e: Expr) -> bool:
    return not free_vars(e) and heap_free(e)


def _infer_sort(lang: Lang, heap: Heap, ctx: Context, e: Expr, what: str) -> Universe:
    # a universe query reads only the head, so it runs in checking mode
    return _universe(_head(heap, ctx, _synth(lang, heap, ctx, e, _head)), e, what)


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


def tgt_infer(heap: Heap, ctx: Context, e: Expr) -> Expr:
    """The type of e; kept on e when the heap and the context are empty."""
    if heap.cells or ctx.entries:
        return infer(_TARGET, heap, ctx, e)
    return kept(e, "_tgt_type", infer, _TARGET, heap, ctx, e)


def tgt_infer_checking(heap: Heap, ctx: Context, e: Expr) -> Expr:
    """The type of e as checking mode synthesizes it (see infer): one to
    compare, not to print."""
    return _synth(_TARGET, heap, ctx, e, _head)


def infer(lang: Lang, heap: Heap, ctx: Context, e: Expr) -> Expr:
    """Synthesize the type of a term of lang under the given heap, raising
    TypeCheckError on failure and FuelExhausted when a normalization or
    conversion query runs out of its step budget.

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
    fire on a source term. A form that one language lacks asks _FOREIGN
    before its arm.
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
    if type(e) in _FOREIGN:
        _reject_foreign(lang, e)
    match e:
        case Var(name=x):
            b = ctx.lookup(x)
            if b is None:
                raise TypeCheckError(ErrKind.UNBOUND_VAR, f"unbound variable '{x}'", e.pos)
            return b.ty
        case Let(binder=x, bound=bound, annot=annot, body=body):
            _sort_of(lang, heap, ctx, annot, "let annotation")
            check(lang, heap, ctx, bound, annot)
            ctx2, x2 = push_binder(ctx, x, annot, defn=bound)
            body_ty = _synth(lang, heap, ctx2, subst(body, Var(x2), x), view)
            return subst(body_ty, bound, x2)
        case Univ(kind=Universe.STAR):
            return Univ(Universe.BOX)
        case Univ(kind=Universe.BOX):
            raise TypeCheckError(ErrKind.UNIVERSE_ERROR, "the top universe has no type", e.pos)
        case UnitTy():
            return Univ(Universe.STAR)
        case UnitTm():
            return UnitTy()
        case Pi(binder=x, dom=dom, cod=cod):
            _sort_of(lang, heap, ctx, dom, "function domain")
            ctx2, x2 = push_binder(ctx, x, dom)
            s = _sort_of(lang, heap, ctx2, subst(cod, Var(x2), x), "function codomain")
            return Univ(s)
        case Sigma(binder=x, dom=dom, cod=cod):
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
        case Code():
            return kept(e, _CODE_TYPE[lang, view], _code, lang, heap, e, view, when=heap_free)
        case CodeTy():
            return _code(lang, heap, e, view)
        case App(fn=f, arg=a):
            fn_ty = view(heap, ctx, _synth(lang, heap, ctx, f, view))
            if not isinstance(fn_ty, Pi):
                raise TypeCheckError(
                    ErrKind.NOT_A_FUNCTION, "application of a non-function", f.pos
                )
            check(lang, heap, ctx, a, fn_ty.dom)
            return subst(fn_ty.cod, a, fn_ty.binder)
        case Fst(expr=inner) | Snd(expr=inner):
            i = SLOT[type(e)]
            t = view(heap, ctx, _synth(lang, heap, ctx, inner, view))
            if not isinstance(t, Sigma):
                raise TypeCheckError(ErrKind.NOT_A_PAIR, "projection from a non-pair", inner.pos)
            # snd needs slot 1 readable too: its type reads fst inner
            if not (readable(t, i) and readable(t, 1)):
                raise TypeCheckError(ErrKind.FLAG_ERROR, _UNREADABLE[i], e.pos)
            return slot_type(t, i, inner)
        case Pair(fst=a, snd=d, annot_sigma=annot):
            if not isinstance(annot, Sigma):
                raise TypeCheckError(
                    ErrKind.ANNOT_MISMATCH, "pair annotation must be a pair type", e.pos
                )
            _sort_of(lang, heap, ctx, annot, "pair annotation")
            check(lang, heap, ctx, a, annot.dom)
            check(lang, heap, ctx, d, subst(annot.cod, a, annot.binder))
            return annot
        case Clo(code=c, env=env, annot_pi=annot):
            code_ty = _norm_ty(heap, ctx, infer(lang, heap, ctx, c))
            if not isinstance(code_ty, CodeTy):
                raise TypeCheckError(
                    ErrKind.NOT_A_FUNCTION, "closure over a term that is not code", c.pos
                )
            check(lang, heap, ctx, env, code_ty.env_ty)
            if not isinstance(annot, Pi):
                raise TypeCheckError(
                    ErrKind.ANNOT_MISMATCH, "closure annotation must be a function type", e.pos
                )
            _sort_of(lang, heap, ctx, annot, "closure annotation")
            if not conversion.equiv(ctx, annot, _closure_type(code_ty, env), heap):
                raise TypeCheckError(ErrKind.ANNOT_MISMATCH,
                                     "closure annotation does not match its required type", e.pos)
            return annot
        case Loc(loc_id=i):
            cell = heap.cell(i)
            if cell is None:
                raise TypeCheckError(ErrKind.UNKNOWN_LOC, f"location {i} is not allocated", e.pos)
            return cell.cell_type
        case Malloc(binder=x, ty1=t1, ty2=t2):
            _sort_of(lang, heap, ctx, t1, "allocated component type")
            ctx2, x2 = push_binder(ctx, x, t1)
            t2r = subst(t2, Var(x2), x)
            _sort_of(lang, heap, ctx2, t2r, "allocated component type")
            return Sigma(x2, t1, 0, t2r, 0)
        case Assign1(tuple_=t, value=v) | Assign2(tuple_=t, value=v):
            i = SLOT[type(e)]
            ty = view(heap, ctx, _synth(lang, heap, ctx, t, view))
            if not isinstance(ty, Sigma):
                raise TypeCheckError(ErrKind.NOT_A_PAIR, "assignment to a non-tuple", t.pos)
            if not writable(ty, i):
                raise TypeCheckError(ErrKind.FLAG_ERROR, _UNWRITABLE[i], e.pos)
            check(lang, heap, ctx, v, slot_type(ty, i, t))
            return filled(ty, i)
        case CTag(expr=t):
            ty = _norm_ty(heap, ctx, infer(lang, heap, ctx, t))
            unpaired = TypeCheckError(
                ErrKind.NOT_A_FUNCTION, "ctag expects a code-and-environment pair", t.pos
            )
            if not isinstance(ty, Sigma):
                raise unpaired
            if not (readable(ty, 1) and readable(ty, 2)):
                raise TypeCheckError(ErrKind.FLAG_ERROR, "ctag needs both slots initialized", e.pos)
            code_ty = _norm_ty(heap, ctx, ty.dom)
            if not isinstance(code_ty, CodeTy) or ty.binder in free_vars(ty.cod):
                raise unpaired
            if not conversion.equiv(ctx, ty.cod, code_ty.env_ty, heap):
                raise unpaired
            return _closure_type(code_ty, Snd(t))
    raise TypeError(f"unknown expression node: {e!r}")


# Where the Code arm keeps a code's type, per language and mode: source
# and target differ on pair types, and the modes on whether an eliminated
# type is normalized. Code is typed in the empty context, and _code
# refuses open code, so the type of heap-free code depends on the node
# alone and is kept. Code that allocates is typed at each use, as
# _sort_of does with types: a type may name an allocation, and
# normalizing it allocates a scratch location numbered after the cells of
# the heap it is typed under.
_CODE_TYPE = {(_SOURCE, _norm_ty): "_src_code_type", (_SOURCE, _head): "_src_code_checking",
              (_TARGET, _norm_ty): "_tgt_code_type", (_TARGET, _head): "_tgt_code_checking"}


def _code(lang: Lang, heap: Heap, e: Code | CodeTy, view) -> Expr:
    """The type of code, or the universe of a code type."""
    is_code = type(e) is Code
    _require_closed(e, "code" if is_code else "code type")
    n, envty, x, argty = e.env_binder, e.env_ty, e.arg_binder, e.arg_ty
    _sort_of(lang, heap, Context(), envty, "code environment type")
    # code is opened in the empty context, so its env binder keeps its name
    ctx_n = Context().extend(n, envty)
    _sort_of(lang, heap, ctx_n, argty, "code argument type")
    ctx_nx, x2 = push_binder(ctx_n, x, argty)
    body2 = subst(e.body if is_code else e.result_ty, Var(x2), x)
    if is_code:
        return CodeTy(n, envty, x2, argty, _synth(lang, heap, ctx_nx, body2, view))
    return Univ(_sort_of(lang, heap, ctx_nx, body2, "code result type"))


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

_VALUE_FORMS = frozenset((UnitTm, UnitTy, Univ, Pi, Sigma, CodeTy, Code, Loc))


def is_tgt_value(e: Expr) -> bool:
    # by class, not isinstance: no node class has a subclass
    cls = type(e)
    return cls in _VALUE_FORMS or (cls is CTag and type(e.expr) is Loc)


_ASSIGN = ("tuple_", "value")
# pair and closure literals have no rule here
_MACHINE = Machine(
    {**EVAL_FIELDS, CTag: ("expr",), Assign1: _ASSIGN, Assign2: _ASSIGN}, is_tgt_value,
    {**STUCK, Fst: "first projection of a non-tuple value",
     Snd: "second projection of a non-tuple value", CTag: "ctag of a non-tuple value",
     Assign1: "assignment to a non-tuple value", Assign2: "assignment to a non-tuple value",
     Expr: "{e.__class__.__name__} cannot step in the target machine"})


def tgt_step(config: Config) -> tuple[Config, str] | None:
    """One machine step, or None when the expression is a value."""
    r = next(_MACHINE.steps(config.heap, config.expr, 1), None)
    return None if r is None else (Config(r[0], r[1]), r[2])


def tgt_eval(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> Config:
    """The final state of a run of e from the empty heap, kept on e per
    fuel."""
    return kept(e, f"_tgt_eval{fuel}", _run, e, fuel)


def _run(e: Expr, fuel: int) -> Config:
    return Config(*_MACHINE.run(Heap(), e, fuel))


def tgt_steps(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[tuple[Config, str]]:
    """The full machine run of e from the empty heap as (configuration,
    rule) pairs, starting from (e, "init"); each configuration after the
    first carries the record of its step."""
    start = Config(Heap(), e)
    return [(start, "init")] + [
        (Config(heap, t, (frames, redex, c)), rule)
        for heap, t, rule, frames, redex, c in _MACHINE.steps(start.heap, e, fuel)
    ]


def tgt_trace(e: Expr, fuel: int = conversion.DEFAULT_FUEL) -> list[str]:
    return [
        f"STEP {k} | {rule} | {print_expr(c.expr, _TARGET)} | {c.heap.summary()}"
        for k, (c, rule) in enumerate(tgt_steps(e, fuel))
    ]


# ---------------------------------------------------------------------------
# Heap audits

@dataclass
class HeapReport:
    ok: bool
    problems: list[str] = field(default_factory=list)


def heap_wf(heap: Heap) -> HeapReport:
    """Audit every cell: flag order, slot presence, value-ness, dangling
    locations, and slot typing against the cell's pair type.

    A cell's audit reads only the cell, its index and the cells that the
    locations in its slots and its type reach, so it is cached on the cell
    object with the cells it read directly. It is reused when all of those
    are the same objects here and none of them needs a fresh audit itself;
    a run that writes one cell per step audits that cell and the cells that
    reach it, not the whole heap.

    A slot whose typing runs out of the step budget is not a problem of
    the heap: heap_wf raises FuelExhausted and keeps no audit for that cell.
    """
    audits = [cell.__dict__.get("_audit") for cell in heap.cells]
    stale: set[int] = set()
    users: dict[int, list[int]] = {}  # cell -> the kept audits that read it
    for i, audit in enumerate(audits):
        if audit is None or audit[0] != i or any(heap.cell(j) is not c for j, c in audit[1]):
            stale.add(i)
        else:
            for j, _ in audit[1]:
                users.setdefault(j, []).append(i)
    todo = list(stale)
    while todo:
        for i in users.get(todo.pop(), ()):
            if i not in stale:
                stale.add(i)
                todo.append(i)
    problems: list[str] = []
    for i, cell in enumerate(heap.cells):
        if i in stale:
            found, read = _audit_cell(heap, i, cell)
            audits[i] = (i, tuple((j, heap.cell(j)) for j in sorted(read - {i})), found)
            cell.__dict__["_audit"] = audits[i]
        problems += audits[i][2]
    return HeapReport(not problems, problems)


def _audit_cell(heap: Heap, i: int, cell: HeapCell) -> tuple[list[str], frozenset[int]]:
    """The problems of cell i of heap, and the locations the audit read:
    those in the cell's type and slots."""
    problems: list[str] = []
    where = f"cell {i}"
    if not isinstance(cell.cell_type, Sigma):
        return [f"{where}: cell type is not a pair type"], frozenset()
    read = locs_in(cell.cell_type)
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
            read = read | locs_in(slot)
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
            check(_TARGET, heap, Context(), v, slot_type(cell.cell_type, k, Loc(i)))
        except TypeCheckError as err:
            problems.append(f"{where}: slot {k} does not type at its slot type ({err})")
    return problems, read
