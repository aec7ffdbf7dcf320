#!/usr/bin/env python3
"""Record what the reader and the printer make of a fixed set of inputs.

Every input is read as source and as target: each corpus/*.src and
corpus/negative/* file, hand-made malformed forms that reach every reader
message, forms built from every head and a menu of arguments, and seeded
token mutations of corpus files. For each, the golden holds the ParseError
line, or the term printed back in the language it was read in and the
position of every node in pre-order. It also holds what print_expr makes
of generated source terms and their compiled target terms in both
languages, and the ValueError text of forms the source cannot print.

Writes sexpr_corpus.txt to the given directory (default tests/golden).
"""

import argparse
import dataclasses
import random
import re
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dtalloc.alloc import translate  # noqa: E402
from dtalloc.harness import GenSpec, gen_typed  # noqa: E402
from dtalloc.sexpr import Lang, ParseError, parse, print_expr  # noqa: E402
from dtalloc.syntax import (  # noqa: E402
    UNIT,
    UNIT_TY,
    Assign1,
    Assign2,
    CTag,
    Expr,
    Let,
    Loc,
    Malloc,
    Pair,
    Sigma,
    Var,
)

LANGS = (Lang.SOURCE, Lang.TARGET)

# At least one input for each message the reader can give, in the order
# the reader's checks come, and inputs where two faults race so that the
# one met first in pre-order is the one reported.
MESSAGES = (
    "",  # empty input
    "   ; only a comment\n",
    ")",  # unexpected ')'
    "(fst unit",  # unclosed parenthesis
    "(fst (pair unit unit (Sigma (x Unit) Unit))",
    "unit unit",  # unexpected trailing input
    "unit )",
    "(let ((x) unit Unit) x)",  # expected a binder name
    "(let (pair unit Unit) pair)",  # reserved word as a name
    "(let (7 unit Unit) x)",  # invalid name
    "(let (x! unit Unit) x)",
    "(Sigma (x Unit 2) (Unit 0))",  # expected an initialization flag
    "(Sigma (x Unit 1) (Unit x))",
    "(let (x unit Unit))",  # malformed form, per head
    "(code ((n Unit) (x Unit)))",
    "(Code ((n Unit) (x Unit)) Unit Unit)",
    "(clo unit unit)",
    "(Pi (x Unit))",
    "(app f)",
    "(pair unit unit)",
    "(Sigma (x Unit))",
    "(malloc (x Unit))",
    "(assign1 x)",
    "(assign2 x unit unit)",
    "(ctag)",
    "(fst)",
    "(snd x x)",
    "Star",  # atoms
    "Box",
    "(app Star Box)",
    "let",  # reserved word as a term
    "loc",
    "42",  # unexpected number
    "-3",
    "x!",  # invalid identifier
    "()",  # empty form
    "(() unit)",  # expected a form keyword
    "((fst x) unit)",
    "(let x x)",  # malformed let binding
    "(let (x unit) x)",
    "(code (n Unit) x)",  # malformed binder list
    "(code ((n Unit) (x Unit) (y Unit)) x)",
    "(Code ((n Unit) x) Unit)",
    "(clo (code ((n Unit) (x Unit)) x) unit Unit)",  # closure annotation
    "(clo unit unit (Sigma (x Unit) Unit))",
    "(Pi x Unit)",  # malformed Pi binder
    "(Pi (x Unit Unit) Unit)",
    "(pair unit unit Unit)",  # pair annotation
    "(pair unit unit (Pi (x Unit) Unit))",
    "(Sigma x Unit)",  # malformed Sigma binder
    "(Sigma (x Unit 1 1) (Unit 1))",
    "(Sigma (x Unit 1) (Unit 0))",  # flagged Sigma is target-only
    "(Sigma (x Unit 1) Unit)",  # malformed flagged Sigma component
    "(Sigma (x Unit 1) (Unit 0 0))",
    "(malloc (x Unit) Unit)",  # target-only forms
    "(assign1 x unit)",
    "(assign2 x unit)",
    "(ctag x)",
    "(malloc x Unit)",  # malformed malloc binder
    "(malloc (x Unit 1) Unit)",
    "(loc 0)",  # location literals
    "(loc)",
    "(frob x)",  # unknown form
    "(Let (x unit Unit) x)",
    # races between two faults
    "(let (pair 7 Unit) ())",
    "(let (x () Unit) ())",
    "(let (x unit ()) (frob))",
    "(let x (frob))",
    "(code ((n ()) (pair Unit)) x)",
    "(code ((7 Unit) (x ())) ())",
    "(clo () unit Unit)",
    "(clo unit unit (frob))",
    "(pair () unit Unit)",
    "(pair unit unit (Sigma (x Unit 1) (Unit 0)))",
    "(Sigma (x () 1) (Unit 0))",
    "(Sigma (x Unit 7) Unit)",
    "(Sigma (x () 1) Unit)",
    "(Sigma (pair Unit 1) (Unit 0))",
    "(Sigma (x Unit) (Unit 0))",
    "(Sigma (x Unit) ())",
    "(Sigma (x Unit 1) (() 0))",
    "(Sigma (x Unit 1) (Unit 0) unit)",
    "(malloc (x Unit) Unit unit)",
    "(malloc (pair ()) ())",
    "(assign1 () ())",
    "(ctag () ())",
    "(fst (snd (app (frob) ())))",
    "(let (x unit Unit)\n  (fst\n    (pair\tunit x (Sigma (y Unit) Unit))))",
)

# Every head, with the number of arguments its form takes.
HEADS = {"let": 2, "code": 2, "Code": 2, "clo": 3, "Pi": 2, "app": 2, "pair": 3, "Sigma": 2,
         "malloc": 2, "assign1": 2, "assign2": 2, "ctag": 1, "fst": 1, "snd": 1, "loc": 1,
         "frob": 1}

# Arguments, each of which some form accepts or some check rejects.
MENU = ("unit", "pair", "7", "()", "(x Unit)", "(x Unit 1)", "(x unit Unit)",
        "((n Unit) (x Unit))", "(Unit 0)", "(Pi (x Unit) Unit)", "(Sigma (x Unit) Unit)")

TOKEN = re.compile(r"[()]|[^\s()]+")
KEYWORDS = ("(", ")", "unit", "Unit", "Star", "Box", "x", "0", "1", "let", "pair", "fst",
            "snd", "app", "clo", "code", "Code", "Pi", "Sigma", "malloc", "assign1",
            "assign2", "ctag", "loc", "7", "x!")


def corpus_files() -> list[Path]:
    corpus = ROOT / "corpus"
    return sorted(corpus.glob("*.src")) + sorted((corpus / "negative").iterdir())


def menu_forms() -> list[str]:
    """Every head with each choice of menu arguments in the number its
    form takes (three-argument forms: the menu last, a short menu for the
    first two), and with too few or too many."""
    out = []
    for head, arity in HEADS.items():
        menus = [MENU] * arity if arity < 3 else [("unit", "()", "(x Unit)")] * 2 + [MENU]
        for args in product(*menus):
            out.append("(" + " ".join((head, *args)) + ")")
        for n in range(4):
            if n != arity:
                out += ["(" + " ".join((head, *[arg] * n)) + ")" for arg in ("unit", "()")]
    return out


def mutations(count: int, seed: int = 11) -> list[str]:
    """Corpus files with one to three tokens inserted, deleted or replaced."""
    rng = random.Random(seed)
    files = corpus_files()
    out = []
    for _ in range(count):
        tokens = TOKEN.findall(re.sub(r";[^\n]*", "", rng.choice(files).read_text()))
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("insert", "delete", "replace") if tokens else ("insert",))
            i = rng.randint(0, len(tokens) - (op != "insert"))
            if op == "delete":
                del tokens[i]
            else:
                tokens[i : i + (op == "replace")] = [rng.choice(KEYWORDS + tuple(tokens))]
        out.append(" ".join(tokens))
    return out


def preorder(e: Expr):
    """Every node of e, each before its children, children in field order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        kids = [getattr(node, f.name) for f in dataclasses.fields(node)]
        stack.extend(k for k in reversed(kids) if isinstance(k, Expr))


def read(text: str, lang: Lang) -> str:
    try:
        e = parse(text, lang)
    except ParseError as err:
        return err.render() + "\n"
    positions = " ".join(f"{n.pos[0]}:{n.pos[1]}" for n in preorder(e))
    return f"{print_expr(e, lang)}\n@ {positions}\n"


def show(e: Expr, lang: Lang) -> str:
    try:
        return print_expr(e, lang) + "\n"
    except ValueError as err:
        return f"ValueError: {err}\n"


def both(label: str, result) -> str:
    """One block per label: the result in each language, or once for both
    when they agree."""
    source, target = (result(lang) for lang in LANGS)
    if source == target:
        return f"== {label}\n-- source and target\n{source}"
    return f"== {label}\n-- source\n{source}-- target\n{target}"


def unprintable() -> list[tuple[str, Expr]]:
    """Target forms alone and nested, so that the first one met in
    pre-order names the error."""
    flagged = Sigma("x", UNIT_TY, 1, UNIT_TY, 0)
    malloc = Malloc("x", UNIT_TY, UNIT_TY)
    return [
        ("flagged Sigma 10", flagged),
        ("flagged Sigma 00", Sigma("x", UNIT_TY, 0, UNIT_TY, 0)),
        ("unflagged Sigma", Sigma("x", UNIT_TY, 1, UNIT_TY, 1)),
        ("malloc", malloc),
        ("assign1", Assign1(Var("y"), UNIT)),
        ("assign2", Assign2(Var("y"), UNIT)),
        ("ctag", CTag(Var("y"))),
        ("loc", Loc(3)),
        ("let over malloc", Let("y", malloc, flagged, CTag(Var("y")))),
        ("let over assign", Let("y", Assign2(malloc, UNIT), Sigma("x", flagged, 1, flagged, 1),
                                Var("y"))),
        ("pair of locs", Pair(Loc(0), Loc(1), Sigma("x", UNIT_TY, 1, UNIT_TY, 1))),
        ("sigma inside sigma", Sigma("x", Sigma("z", UNIT_TY, 1, UNIT_TY, 1), 1,
                                     Sigma("z", malloc, 1, UNIT_TY, 0), 1)),
    ]


def render() -> str:
    parts = []
    inputs = [(p.relative_to(ROOT).as_posix(), p.read_text()) for p in corpus_files()]
    inputs += [(f"message {text!r}", text) for text in MESSAGES]
    inputs += [(f"menu {text}", text) for text in menu_forms()]
    inputs += [(f"mutation {text}", text) for text in mutations(500)]
    for label, text in inputs:
        parts.append(both(f"read {label}", lambda lang: read(text, lang)))
    for seed in range(60):
        ctx, term, ty = gen_typed(GenSpec(depth=4, seed=seed, closed=seed % 2 == 0))
        compiled = translate(ctx, term)
        for what, e in (("term", term), ("type", ty), ("compiled", compiled)):
            parts.append(both(f"print gen{seed} {what}", lambda lang: show(e, lang)))
    for label, e in unprintable():
        parts.append(both(f"print {label}", lambda lang: show(e, lang)))
    return "".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", nargs="?", default=str(ROOT / "tests" / "golden"))
    args = ap.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "sexpr_corpus.txt"
    path.write_text(render())
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
