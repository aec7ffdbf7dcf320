"""Every dtalloc name the benchmark in perfbench/ reaches still resolves.

These tests collect only tests/, so a rename or a fold that also edits
the tests here would stay green and break only the benchmark. This file
resolves, on the package, the functions perfbench/spans.py times and
counts, and every dt.<module>.<name> that perfbench/workloads.py and
perfbench/run.py read, through an alias such as h = dt.harness too. It
reads all three files with ast, so it imports nothing from perfbench.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _missing(pairs) -> list[str]:
    """The module.name pairs that do not resolve on the dtalloc package."""
    out = []
    for module, name in sorted(pairs):
        try:
            mod = importlib.import_module(f"dtalloc.{module}")
        except ImportError:
            out.append(f"{module} (no such module)")
            continue
        if not hasattr(mod, name):
            out.append(f"{module}.{name}")
    return out


def _span_tables() -> dict[str, tuple]:
    """The literal top-level tuples of perfbench/spans.py, by name."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    return {
        stmt.targets[0].id: ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Tuple)
    }


def _is_dt(node: ast.AST) -> bool:
    """node is the benchmark's handle on the package: dt, or x.dt."""
    return (isinstance(node, ast.Name) and node.id == "dt") or (
        isinstance(node, ast.Attribute) and node.attr == "dt"
    )


def _aliases(tree: ast.AST) -> dict[str, str]:
    """Local names bound to a module, as in h = dt.harness or
    h, Context = dt.harness, dt.syntax.Context."""
    out = {}
    for n in ast.walk(tree):
        if not isinstance(n, ast.Assign):
            continue
        for target in n.targets:
            pairs = [(target, n.value)]
            if isinstance(target, ast.Tuple) and isinstance(n.value, ast.Tuple):
                pairs = list(zip(target.elts, n.value.elts))
            for t, v in pairs:
                if isinstance(t, ast.Name) and isinstance(v, ast.Attribute) and _is_dt(v.value):
                    out[t.id] = v.attr
    return out


def _reached(path: Path) -> set[tuple[str, str]]:
    """The (module, name) pairs the file reads off the package."""
    tree = ast.parse(path.read_text(), str(path))
    aliases = _aliases(tree)
    out = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Attribute):
            continue
        inner = n.value
        if isinstance(inner, ast.Attribute) and _is_dt(inner.value) and inner.attr != "modules":
            out.add((inner.attr, n.attr))
        elif isinstance(inner, ast.Name) and inner.id in aliases:
            out.add((aliases[inner.id], n.attr))
    return out


def test_every_traced_and_counted_function_resolves():
    tables = _span_tables()
    pairs = {(home, fn) for home, fn, _ in tables["SPANS"] + tables["COUNTERS"]}
    assert ("target", "tgt_infer") in pairs
    assert _missing(pairs) == []
    heap = importlib.import_module("dtalloc.heap")
    methods = tables["METHOD_COUNTERS"]
    assert methods
    assert [f"{c}.{m}" for c, m, _ in methods if not hasattr(getattr(heap, c, None), m)] == []


def test_every_name_the_workloads_read_resolves():
    pairs = _reached(PERFBENCH / "workloads.py") | _reached(PERFBENCH / "run.py")
    # the scan sees every spelling: dt.<module>, w.dt.<module> and h = dt.harness
    assert {("target", "tgt_infer"), ("errors", "FuelExhausted"),
            ("harness", "check_step_preservation")} <= pairs
    assert _missing(pairs) == []
