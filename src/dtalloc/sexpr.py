"""Surface syntax: an s-expression reader and printer for both languages.

One term per input. Comments run from `;` to end of line. The source
language rejects the allocation forms (malloc, assign1, assign2, ctag)
and flagged pair types; location literals are runtime-only and rejected
everywhere, although the printer can render them for traces. Each form's
syntax is written once, in `_FORMS`, for both the reader and the printer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial

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


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT = re.compile(r"-?[0-9]+")


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


_TOKEN = re.compile(r"[()]|[^ \t\r();]+")  # a parenthesis or an atom


def _read_one(text: str):
    """The s-expression text holds, read on an explicit stack of open
    lists, so nesting costs no Python frames."""
    open_lists, done = [], None
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(chars.partition(";")[0]):
            t, col = m.group(), m.start() + 1
            if done is not None:
                raise ParseError("unexpected trailing input", line, col)
            if t == "(":
                open_lists.append(_SList([], line, col))
                continue
            if t != ")":
                item = _SAtom(t, line, col)
            elif open_lists:
                item = open_lists.pop()
            else:
                raise ParseError("unexpected ')'", line, col)
            if open_lists:
                open_lists[-1].items.append(item)
            else:
                done = item
    if open_lists:
        raise ParseError("unclosed parenthesis", open_lists[-1].line, open_lists[-1].col, (")",))
    if done is None:
        raise ParseError("empty input", 1, 1)
    return done


def parse(text: str, lang: Lang = Lang.SOURCE) -> Expr:
    """Parse one term; raises ParseError with position and expectations."""
    return _build(_read_one(text), lang)


# ---------------------------------------------------------------------------
# The forms
#
# One row per form head: its node type, its shape, which the reader names
# when a form has the wrong length, and the labels of the lists in its last
# layout, in order. A shape is written as the form itself: x and n stand
# for binder names, f1 and f2 for initialization flags, a form for a term
# that must be that form, any other name for a term and any other list for
# a group, a list inside a group being checked with it; the arguments come
# in constructor order. A shape with two layouts gives the one without
# flags first, and their first groups tell them apart: the source reads
# and prints that one, each flag being 1, and the target reads both and
# prints the flags. A new node type needs one row here.

_FORMS = {
    "let": (Let, "(let (x e A) body)", "let binding"),
    "code": (Code, "(code ((n A1) (x A)) e)", "binder list"),
    "Code": (CodeTy, "(Code ((n A1) (x A)) e)", "binder list"),
    "clo": (Clo, "(clo e1 e2 (Pi (x A) B))", "closure annotation"),
    "Pi": (Pi, "(Pi (x A) B)", "Pi binder"),
    "app": (App, "(app e1 e2)"),
    "pair": (Pair, "(pair e1 e2 (Sigma (x A) B))", "pair annotation"),
    "Sigma": (Sigma, "(Sigma (x A) B) or (Sigma (x A f1) (B f2))", "Sigma binder",
              "flagged Sigma component"),
    "malloc": (Malloc, "(malloc (x A) B)", "malloc binder"),
    "assign1": (Assign1, "(assign1 e e2)"),
    "assign2": (Assign2, "(assign2 e e2)"),
    "ctag": (CTag, "(ctag e)"),
    "fst": (Fst, "(fst e)"),
    "snd": (Snd, "(snd e)"),
}

_TARGET_ONLY = {"malloc", "assign1", "assign2", "ctag"}

# the atoms that are words, and the nodes they read as
_WORDS = {"unit": UnitTm, "Unit": UnitTy, "Star": partial(Univ, Universe.STAR),
          "Box": partial(Univ, Universe.BOX)}

_FORM_HEADS = tuple(_FORMS)
RESERVED = {*_FORMS, "loc", *_WORDS}

# A layout's reader plan is its steps in pre-order, each (op, k, inner,
# extra), the piece being item k of the form's list and then item by item
# along inner. A group is checked when the reader reaches it and a term is
# read before the pieces after it, so messages come in the order of a
# left-to-right, top-down reading.
_NAME, _TERM, _FLAG, _GROUP, _ANNOT, _BUILD = "name", "term", "flag", "group", "annot", "build"
_ROLES = {"x": _NAME, "n": _NAME, "f1": _FLAG, "f2": _FLAG}


def _show(sx) -> str:
    return sx.text if type(sx) is _SAtom else "(" + " ".join(map(_show, sx.items)) + ")"


def _fits(sx, pattern: _SList) -> bool:
    """Whether sx is a list as long as pattern, with a list where it has one."""
    return (
        type(sx) is _SList
        and len(sx.items) == len(pattern.items)
        and all(type(p) is _SAtom or _fits(i, p) for i, p in zip(sx.items, pattern.items))
    )


def _layouts(head: str) -> list:
    """Per layout of a head's shape: the layout read as an s-expression,
    its steps, the roles of its arguments, and its text with a NUL in place
    of each argument."""
    shape, *labels = _FORMS[head][1:]
    forms = [_read_one(text) for text in shape.split(" or ")]
    label = dict(zip((k for k, p in enumerate(forms[-1].items) if type(p) is _SList), labels))

    def walk(sx, path, steps, roles):
        text = []
        for k, p in enumerate(sx.items):
            at, annot = path + (k,), type(p) is _SList and _show(p.items[0]) in _FORMS
            if at == (0,):
                text.append(p.text)
            elif type(p) is _SAtom or annot:
                roles.append(_TERM if annot else _ROLES.get(p.text, _TERM))
                steps.append((roles[-1], at[0], at[1:], None))
                text.append("\0")
            else:
                if not path:
                    alts = [_show(f.items[k]) for f in forms if type(f.items[k]) is _SList]
                    message = f"malformed {label[k]}, expected {' or '.join(alts)}"
                    steps.append((_GROUP, k, (), (p, message, {})))
                text.append(walk(p, at, steps, roles))
            if annot:
                h = p.items[0].text
                steps.append((_ANNOT, k, (), (_FORMS[h][0], f"{label[k]} must be a {h} form")))
        return "(" + " ".join(text) + ")"

    layouts = [(form, [], []) for form in forms]
    return [(form, steps, roles, walk(form, (), steps, roles)) for form, steps, roles in layouts]


def _plans(head: str, lang: Lang) -> tuple:
    """A head's reader plan in lang, (length, message, steps), and printer
    plan, (template with a gap for each argument, the (field, role) of each
    argument, flags that must be 1, refusal); a message in place of a plan
    refuses the form."""
    cls, shape = _FORMS[head][:2]
    if head in _TARGET_ONLY and lang is Lang.SOURCE:
        return (f"target-only form '{head}' is not source syntax",
                f"{head} is not printable as source syntax")
    *bare, (form, steps, roles, _) = layouts = _layouts(head)
    steps = (*steps, (_BUILD, 0, (), (cls, ())))
    flags = tuple(i for i, r in enumerate(roles) if r is _FLAG)
    for _, plain, _, _ in bare:
        # the flagged layout's first group is read in place of the plain one's
        full = steps if lang is Lang.TARGET else f"flagged {head} is target-only syntax"
        (op, k, _, (pattern, message, _)), *rest = plain
        group = (op, k, (), (pattern, message, {len(form.items[k].items): full}))
        steps = (group, *rest, (_BUILD, 0, (), (cls, flags)))
    names = [f.name for f in fields(cls)][:-1]
    ones = [names[i] for i in flags] if lang is Lang.SOURCE else []
    args = [(n, r) for n, r in zip(names, roles) if n not in ones]
    template = [None] * (2 * len(args) + 1)
    template[0::2] = layouts[0 if lang is Lang.SOURCE else -1][3].split("\0")
    read = len(form.items), f"malformed form, expected {shape}", steps
    return read, (template, args, ones, f"flagged {head} is not printable as source syntax")


# _build reads a term as the one argument of a root form that builds it
_ROOT = ((_TERM, 0, (), None), (_BUILD, 0, (), (lambda e, pos: e, ())))
_LOC = "location literals are runtime-only and cannot be parsed"
_PLANS = {lang: {h: _plans(h, lang) for h in _FORMS} for lang in Lang}
_READ = {lang: {"loc": _LOC, **{h: p[0] for h, p in ps.items()}} for lang, ps in _PLANS.items()}
_PRINT = {lang: {_FORMS[h][0]: p[1] for h, p in ps.items()} for lang, ps in _PLANS.items()}
# the text of each atom, as an expression of the atom e
_ATOM_TEXT = {
    Var: "e.name",
    Univ: "e.kind.value",
    UnitTm: "'unit'",
    UnitTy: "'Unit'",
    Loc: "f'(loc {e.loc_id})'",
}


def _fail(sx, message: str, expected: tuple[str, ...] = ()):
    raise ParseError(message, sx.line, sx.col, expected)


def _atom(sx: _SAtom) -> Expr:
    t, pos = sx.text, (sx.line, sx.col)
    if t in _WORDS:
        return _WORDS[t](pos=pos)
    if t in RESERVED:
        _fail(sx, f"reserved word '{t}' is not a term by itself")
    if _INT.fullmatch(t):
        _fail(sx, f"unexpected number '{t}'")
    if not _IDENT.fullmatch(t):
        _fail(sx, f"invalid identifier '{t}'")
    return Var(t, pos=pos)


def _build(sx, lang: Lang) -> Expr:
    """The term sx denotes, read top-down on an explicit stack of the forms
    above the one being read; sx is read as the argument of a root form."""
    plans = _READ[lang]
    steps, i, args, cur, above = _ROOT, 0, [], _SList([sx], sx.line, sx.col), []
    while True:
        op, k, inner, extra = steps[i]
        i += 1
        item = cur.items[k]
        for k in inner:
            item = item.items[k]
        if op is _TERM:
            if type(item) is _SAtom:
                args.append(_atom(item))
                continue
            items = item.items
            if not items:
                _fail(item, "empty form", _FORM_HEADS)
            head = items[0]
            if type(head) is not _SAtom:
                _fail(item, "expected a form keyword", _FORM_HEADS)
            plan = plans.get(head.text)
            if plan is None:
                _fail(head, f"unknown form '{head.text}'", _FORM_HEADS)
            if type(plan) is str:
                _fail(item, plan)
            if len(items) != plan[0]:
                _fail(item, plan[1])
            above.append((steps, i, args, cur))
            steps, i, args, cur = plan[2], 0, [], item
        elif op is _BUILD:
            cls, ones = extra
            for k in ones:
                args.insert(k, 1)
            node = cls(*args, pos=(cur.line, cur.col))
            if not above:
                return node
            steps, i, args, cur = above.pop()
            args.append(node)
        elif op is _NAME:
            if type(item) is not _SAtom:
                _fail(item, "expected a binder name")
            if item.text in RESERVED:
                _fail(item, f"reserved word '{item.text}' cannot be used as a name")
            if not _IDENT.fullmatch(item.text):
                _fail(item, f"invalid name '{item.text}'")
            args.append(item.text)
        elif op is _GROUP:  # extra: the group's pattern, the message, other layouts by length
            pattern, message, others = extra
            if not _fits(item, pattern):
                steps = others.get(len(item.items) if type(item) is _SList else None)
                if steps is None:
                    _fail(item, message)
                if type(steps) is str:
                    _fail(cur, steps)
                i -= 1  # the other layout's own check of the group
        elif op is _FLAG:
            if type(item) is not _SAtom or item.text not in ("0", "1"):
                _fail(item, "expected an initialization flag", ("0", "1"))
            args.append(int(item.text))
        else:  # _ANNOT
            if not isinstance(args[-1], extra[0]):
                _fail(item, extra[1])


def _renderers(lang: Lang) -> dict:
    """A renderer per node type in lang, generated from the printer plans
    with one exec on the first print in lang and kept in _RENDER.

    A renderer appends a node's text up to its first child term to out
    and pushes the rest, its child terms and the text between them, onto
    todo in reverse; names and flags are written into that text. The
    renderers are generated as source so that each reads its fields as
    attributes and writes its text with one f-string: built from the plans
    as closures, over str.format and getattr, they printed no faster than
    a loop that interprets the plans.
    """
    lines = []

    def text(parts: list) -> str:  # literal text and fields, as one expression
        if len(parts) == 1:
            return repr(parts[0])
        return "f" + repr("".join(p.replace("{", "{{").replace("}", "}}") if k % 2 == 0
                                  else f"{{e.{p}}}" for k, p in enumerate(parts)))

    for cls, plan in _PRINT[lang].items():
        lines.append(f"def {cls.__name__}(e, out, todo):")
        if type(plan) is str:
            lines.append(f"    raise ValueError({plan!r})")
            continue
        template, args, ones, refusal = plan
        if ones:
            test = " or ".join(f"e.{f} != 1" for f in ones)
            lines += [f"    if {test}:", f"        raise ValueError({refusal!r})"]
        pieces, parts = [], [template[0]]
        for (f, role), after in zip(args, template[2::2]):
            if role is _TERM:
                pieces += [text(parts), f"e.{f}"]
                parts = [after]
            else:
                parts += [f, after]
        first, *rest = pieces + [text(parts)]
        lines += [f"    out.append({first})", f"    todo += ({', '.join(reversed(rest))},)"]
    for cls, code in _ATOM_TEXT.items():
        lines += [f"def {cls.__name__}(e, out, todo):", f"    out.append({code})"]
    space: dict = {}
    exec("\n".join(lines), space)
    render = _RENDER[lang] = {cls: space[cls.__name__] for cls in (*_PRINT[lang], *_ATOM_TEXT)}
    return render


_RENDER: dict = {}


def print_expr(e: Expr, lang: Lang = Lang.SOURCE) -> str:
    """Render a term back to surface syntax.

    Rendering a flagged pair type or an allocation form as source raises
    ValueError; locations render as (loc N) for traces even though the
    parser will not read them back.
    """
    render = _RENDER.get(lang) or _renderers(lang)
    out, todo = [], [e]
    while todo:
        item = todo.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls in render:
            render[cls](item, out, todo)
        else:
            raise TypeError(f"unknown expression node: {item!r}")
    return "".join(out)
