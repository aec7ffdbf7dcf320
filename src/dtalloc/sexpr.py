"""Surface syntax: an s-expression reader and printer for both languages.

One term per input. Comments run from `;` to end of line. The source
language rejects the allocation forms (malloc, assign1, assign2, ctag)
and flagged pair types; location literals are runtime-only and rejected
everywhere, although the printer can render them for traces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

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
)


class Lang(Enum):
    SOURCE = "source"
    TARGET = "target"


@dataclass
class ParseError(Exception):
    message: str
    line: int
    col: int
    expected: tuple[str, ...] = ()

    def render(self) -> str:
        text = f"error[ParseError] {self.line}:{self.col} {self.message}"
        if self.expected:
            text += " (expected " + ", ".join(self.expected) + ")"
        return text

    def __str__(self) -> str:
        return self.render()


RESERVED = {
    "let", "code", "Code", "clo", "Pi", "app", "pair", "Sigma",
    "malloc", "assign1", "assign2", "ctag", "fst", "snd", "loc",
    "unit", "Unit", "Star", "Box",
}

_FORM_HEADS = (
    "let", "code", "Code", "clo", "Pi", "app", "pair", "Sigma",
    "malloc", "assign1", "assign2", "ctag", "fst", "snd",
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT = re.compile(r"-?[0-9]+")


@dataclass
class _Tok:
    kind: str  # "(", ")", "atom"
    text: str
    line: int
    col: int


@dataclass
class _SAtom:
    text: str
    line: int
    col: int


@dataclass
class _SList:
    items: list
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(_Tok(c, c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok("atom", text[i:j], line, col))
            col += j - i
            i = j
    return toks


def _read_one(toks: list[_Tok]):
    """The s-expression the tokens start with and the index after it, read
    on an explicit stack of open lists, so nesting costs no Python frames."""
    if not toks:
        raise ParseError("empty input", 1, 1)
    open_lists: list[tuple[_Tok, list]] = []
    for i, t in enumerate(toks):
        if t.kind == "(":
            open_lists.append((t, []))
            continue
        if t.kind == "atom":
            item = _SAtom(t.text, t.line, t.col)
        elif open_lists:
            start, items = open_lists.pop()
            item = _SList(items, start.line, start.col)
        else:
            raise ParseError("unexpected ')'", t.line, t.col)
        if not open_lists:
            return item, i + 1
        open_lists[-1][1].append(item)
    start = open_lists[-1][0]
    raise ParseError("unclosed parenthesis", start.line, start.col, (")",))


def parse(text: str, lang: Lang = Lang.SOURCE) -> Expr:
    """Parse one term; raises ParseError with position and expectations."""
    toks = _tokenize(text)
    sx, rest = _read_one(toks)
    if rest != len(toks):
        extra = toks[rest]
        raise ParseError("unexpected trailing input", extra.line, extra.col)
    return _build(sx, lang)


def _fail(sx, message: str, expected: tuple[str, ...] = ()):
    raise ParseError(message, sx.line, sx.col, expected)


def _binder_name(sx) -> str:
    if not isinstance(sx, _SAtom):
        _fail(sx, "expected a binder name")
    t = sx.text
    if t in RESERVED:
        _fail(sx, f"reserved word '{t}' cannot be used as a name")
    if _INT.fullmatch(t) or not _IDENT.fullmatch(t):
        _fail(sx, f"invalid name '{t}'")
    return t


def _flag(sx) -> int:
    if isinstance(sx, _SAtom) and sx.text in ("0", "1"):
        return int(sx.text)
    _fail(sx, "expected an initialization flag", ("0", "1"))


def _need(sx, count: int, shape: str):
    if len(sx.items) != count:
        _fail(sx, f"malformed form, expected {shape}")


def _build(sx, lang: Lang) -> Expr:
    pos = (sx.line, sx.col)
    if isinstance(sx, _SAtom):
        t = sx.text
        if t == "unit":
            return UnitTm(pos=pos)
        if t == "Unit":
            return UnitTy(pos=pos)
        if t == "Star":
            return Univ(Universe.STAR, pos=pos)
        if t == "Box":
            return Univ(Universe.BOX, pos=pos)
        if t in RESERVED:
            _fail(sx, f"reserved word '{t}' is not a term by itself")
        if _INT.fullmatch(t):
            _fail(sx, f"unexpected number '{t}'")
        if not _IDENT.fullmatch(t):
            _fail(sx, f"invalid identifier '{t}'")
        return Var(t, pos=pos)

    if not sx.items:
        _fail(sx, "empty form", _FORM_HEADS)
    head = sx.items[0]
    if not isinstance(head, _SAtom):
        _fail(sx, "expected a form keyword", _FORM_HEADS)
    h = head.text

    if h == "let":
        _need(sx, 3, "(let (x e A) body)")
        spec = sx.items[1]
        if not isinstance(spec, _SList) or len(spec.items) != 3:
            _fail(sx.items[1], "malformed let binding, expected (x e A)")
        x = _binder_name(spec.items[0])
        bound = _build(spec.items[1], lang)
        annot = _build(spec.items[2], lang)
        body = _build(sx.items[2], lang)
        return Let(x, bound, annot, body, pos=pos)

    if h in ("code", "Code"):
        shape = f"({h} ((n A1) (x A)) e)"
        _need(sx, 3, shape)
        binders = sx.items[1]
        if (
            not isinstance(binders, _SList)
            or len(binders.items) != 2
            or not all(isinstance(b, _SList) and len(b.items) == 2 for b in binders.items)
        ):
            _fail(sx.items[1], f"malformed binder list, expected ((n A1) (x A))")
        n = _binder_name(binders.items[0].items[0])
        env_ty = _build(binders.items[0].items[1], lang)
        x = _binder_name(binders.items[1].items[0])
        arg_ty = _build(binders.items[1].items[1], lang)
        body = _build(sx.items[2], lang)
        if h == "code":
            return Code(n, env_ty, x, arg_ty, body, pos=pos)
        return CodeTy(n, env_ty, x, arg_ty, body, pos=pos)

    if h == "clo":
        _need(sx, 4, "(clo e1 e2 (Pi (x A) B))")
        c = _build(sx.items[1], lang)
        env = _build(sx.items[2], lang)
        annot = _build(sx.items[3], lang)
        if not isinstance(annot, Pi):
            _fail(sx.items[3], "closure annotation must be a Pi form")
        return Clo(c, env, annot, pos=pos)

    if h == "Pi":
        _need(sx, 3, "(Pi (x A) B)")
        spec = sx.items[1]
        if not isinstance(spec, _SList) or len(spec.items) != 2:
            _fail(sx.items[1], "malformed Pi binder, expected (x A)")
        x = _binder_name(spec.items[0])
        dom = _build(spec.items[1], lang)
        cod = _build(sx.items[2], lang)
        return Pi(x, dom, cod, pos=pos)

    if h == "app":
        _need(sx, 3, "(app e1 e2)")
        return App(_build(sx.items[1], lang), _build(sx.items[2], lang), pos=pos)

    if h == "pair":
        _need(sx, 4, "(pair e1 e2 (Sigma (x A) B))")
        a = _build(sx.items[1], lang)
        d = _build(sx.items[2], lang)
        annot = _build(sx.items[3], lang)
        if not isinstance(annot, Sigma):
            _fail(sx.items[3], "pair annotation must be a Sigma form")
        return Pair(a, d, annot, pos=pos)

    if h == "Sigma":
        _need(sx, 3, "(Sigma (x A) B) or (Sigma (x A f1) (B f2))")
        spec = sx.items[1]
        if not isinstance(spec, _SList) or len(spec.items) not in (2, 3):
            _fail(sx.items[1], "malformed Sigma binder, expected (x A) or (x A f1)")
        if len(spec.items) == 2:
            x = _binder_name(spec.items[0])
            dom = _build(spec.items[1], lang)
            cod = _build(sx.items[2], lang)
            return Sigma(x, dom, 1, cod, 1, pos=pos)
        if lang is Lang.SOURCE:
            _fail(sx, "flagged Sigma is target-only syntax")
        x = _binder_name(spec.items[0])
        dom = _build(spec.items[1], lang)
        f1 = _flag(spec.items[2])
        codspec = sx.items[2]
        if not isinstance(codspec, _SList) or len(codspec.items) != 2:
            _fail(sx.items[2], "malformed flagged Sigma component, expected (B f2)")
        cod = _build(codspec.items[0], lang)
        f2 = _flag(codspec.items[1])
        return Sigma(x, dom, f1, cod, f2, pos=pos)

    if h == "malloc":
        if lang is Lang.SOURCE:
            _fail(sx, "target-only form 'malloc' is not source syntax")
        _need(sx, 3, "(malloc (x A) B)")
        spec = sx.items[1]
        if not isinstance(spec, _SList) or len(spec.items) != 2:
            _fail(sx.items[1], "malformed malloc binder, expected (x A)")
        x = _binder_name(spec.items[0])
        ty1 = _build(spec.items[1], lang)
        ty2 = _build(sx.items[2], lang)
        return Malloc(x, ty1, ty2, pos=pos)

    if h in ("assign1", "assign2"):
        if lang is Lang.SOURCE:
            _fail(sx, f"target-only form '{h}' is not source syntax")
        _need(sx, 3, f"({h} e e2)")
        t = _build(sx.items[1], lang)
        v = _build(sx.items[2], lang)
        return (Assign1 if h == "assign1" else Assign2)(t, v, pos=pos)

    if h == "ctag":
        if lang is Lang.SOURCE:
            _fail(sx, "target-only form 'ctag' is not source syntax")
        _need(sx, 2, "(ctag e)")
        return CTag(_build(sx.items[1], lang), pos=pos)

    if h == "fst":
        _need(sx, 2, "(fst e)")
        return Fst(_build(sx.items[1], lang), pos=pos)

    if h == "snd":
        _need(sx, 2, "(snd e)")
        return Snd(_build(sx.items[1], lang), pos=pos)

    if h == "loc":
        _fail(sx, "location literals are runtime-only and cannot be parsed")

    _fail(head, f"unknown form '{h}'", _FORM_HEADS)


def print_expr(e: Expr, lang: Lang = Lang.SOURCE) -> str:
    """Render a term back to surface syntax.

    Rendering a flagged pair type or an allocation form as source raises
    ValueError; locations render as (loc N) for traces even though the
    parser will not read them back.
    """
    match e:
        case Var(x):
            return x
        case Univ(u):
            return u.value
        case UnitTm():
            return "unit"
        case UnitTy():
            return "Unit"
        case Let(b, bound, annot, body):
            bound_s, annot_s = print_expr(bound, lang), print_expr(annot, lang)
            return f"(let ({b} {bound_s} {annot_s}) {print_expr(body, lang)})"
        case Code(n, envty, x, argty, body) | CodeTy(n, envty, x, argty, body):
            head = "code" if isinstance(e, Code) else "Code"
            envty_s, argty_s = print_expr(envty, lang), print_expr(argty, lang)
            return f"({head} (({n} {envty_s}) ({x} {argty_s})) {print_expr(body, lang)})"
        case Clo(c, env, pi):
            return f"(clo {print_expr(c, lang)} {print_expr(env, lang)} {print_expr(pi, lang)})"
        case Pi(b, dom, cod):
            return f"(Pi ({b} {print_expr(dom, lang)}) {print_expr(cod, lang)})"
        case App(f, a):
            return f"(app {print_expr(f, lang)} {print_expr(a, lang)})"
        case Pair(a, d, s):
            return f"(pair {print_expr(a, lang)} {print_expr(d, lang)} {print_expr(s, lang)})"
        case Sigma(b, dom, f1, cod, f2):
            if lang is Lang.SOURCE:
                if (f1, f2) != (1, 1):
                    raise ValueError("flagged Sigma is not printable as source syntax")
                return f"(Sigma ({b} {print_expr(dom, lang)}) {print_expr(cod, lang)})"
            return f"(Sigma ({b} {print_expr(dom, lang)} {f1}) ({print_expr(cod, lang)} {f2}))"
        case Fst(inner):
            return f"(fst {print_expr(inner, lang)})"
        case Snd(inner):
            return f"(snd {print_expr(inner, lang)})"
        case Malloc(b, t1, t2):
            if lang is Lang.SOURCE:
                raise ValueError("malloc is not printable as source syntax")
            return f"(malloc ({b} {print_expr(t1, lang)}) {print_expr(t2, lang)})"
        case Assign1(t, v) | Assign2(t, v):
            head = type(e).__name__.lower()
            if lang is Lang.SOURCE:
                raise ValueError(f"{head} is not printable as source syntax")
            return f"({head} {print_expr(t, lang)} {print_expr(v, lang)})"
        case CTag(inner):
            if lang is Lang.SOURCE:
                raise ValueError("ctag is not printable as source syntax")
            return f"(ctag {print_expr(inner, lang)})"
        case Loc(i):
            return f"(loc {i})"
    raise TypeError(f"unknown expression node: {e!r}")
