"""Running out of the step budget has one outcome: FuelExhausted passes
unchanged from the machines and conversion through typing and the heap
audits to the two layers that report it, cli.main (exit 3) and the
harness's verdicts (fuel). Built on the standard library's ast: every
except clause in src/ that can catch FuelExhausted is listed here, so a
new handler, one that relabels fuel as a type error say, fails the test."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dtalloc"

# (module, enclosing function) of each handler, with how many it holds
ALLOWED = Counter({
    # error[FuelExhausted] and exit 3, then error[Internal] for the rest
    ("cli.py", "main"): 2,
    # the verdict of a check, through _classify
    ("harness.py", "_judged.judged.check"): 1,
    # the local step check falls back to typing the whole state
    ("harness.py", "_step_keeps_type"): 1,
    # re-raised with the caller's budget
    ("harness.py", "source_step_pairs"): 1,
})


def _caught(handler: ast.ExceptHandler) -> set[str]:
    """The names of the exception classes handler catches."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else ast.unparse(t) for t in types}


def _fuel_handlers() -> Counter:
    """(module, enclosing function) of every handler that names
    FuelExhausted or catches every exception."""
    found = Counter()
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{where}.{child.name}" if where else child.name
                if isinstance(child, ast.ExceptHandler) and _caught(child) & {
                    "FuelExhausted", "Exception", "BaseException"
                }:
                    found[path.name, where] += 1
                visit(child, inner)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_only_the_reporting_layers_and_the_local_step_check_catch_fuel():
    assert _fuel_handlers() == ALLOWED
