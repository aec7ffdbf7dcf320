"""No dead code in the package: every import is used and every private
top-level name is read somewhere else in src/. Built on the standard
library's ast, so it needs no linter."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dtalloc"


def _modules():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _names_read(node: ast.AST) -> set[str]:
    """The names node reads: bare names, attributes and names it imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def _defined(stmt: ast.stmt) -> list[str]:
    """The top-level names stmt defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    if isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # re-exports the public names
            continue
        imported = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.module == "__future__":
                continue
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                for a in n.names:
                    imported[(a.asname or a.name).split(".")[0]] = n.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line} {i}" for i, line in imported.items() if i not in used]
    assert not unused


def test_every_private_top_level_name_is_read_elsewhere():
    modules = _modules()
    reads = [(stmt, _names_read(stmt)) for tree in modules.values() for stmt in tree.body]
    dead = []
    for name, tree in modules.items():
        for stmt in tree.body:
            for d in _defined(stmt):
                if not d.startswith("_") or d.startswith("__"):
                    continue
                # read by another top-level statement of any module
                if not any(other is not stmt and d in names for other, names in reads):
                    dead.append(f"{name}:{stmt.lineno} {d}")
    assert not dead
