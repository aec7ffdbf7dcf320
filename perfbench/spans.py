"""Span recording around calls into dtalloc's public functions.

A span covers one call that crosses into a module: its name, start, end,
the span that was open when it began (its parent) and the program being
run. Spans stay in compact arrays until the run ends. A layer's self time
is its span's duration minus the time its direct child spans cover.

``install`` replaces each traced function wherever a dtalloc module binds
it: the defining module's attribute, which callers such as
``conversion.equiv`` reach, and every ``from ... import`` binding, such as
``harness.tgt_infer``. A call that re-enters the function whose span is
innermost (recursion through the module global) runs inside that span
instead of opening a new one.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from dataclasses import dataclass, field

# (module, function, span name). The harness checks are named after the
# property each one reports.
SPANS = (
    ("sexpr", "parse", "sexpr.parse"),
    ("sexpr", "print_expr", "sexpr.print_expr"),
    ("cli", "main", "cli.main"),
    ("source", "src_infer", "source.src_infer"),
    ("source", "src_eval", "source.src_eval"),
    ("alloc", "translate", "alloc.translate"),
    ("target", "tgt_infer", "target.tgt_infer"),
    ("target", "tgt_eval", "target.tgt_eval"),
    ("target", "tgt_steps", "target.tgt_steps"),
    ("target", "heap_wf", "target.heap_wf"),
    ("conversion", "normalize", "conversion.normalize"),
    ("conversion", "equiv", "conversion.equiv"),
    ("conversion", "subtype", "conversion.subtype"),
    ("syntax", "all_names", "syntax.all_names"),
    ("syntax", "subst", "syntax.subst"),
    ("syntax", "alpha_eq", "syntax.alpha_eq"),
    ("model", "emit_model", "model.emit_model"),
    ("harness", "gen_cases", "harness.gen"),
    ("harness", "gen_typed", "harness.gen"),
    ("harness", "gen_lemma4", "harness.gen"),
    ("harness", "check_preservation", "harness.check.type-preservation"),
    ("harness", "check_subst_commute", "harness.check.substitution"),
    ("harness", "check_reduction_preserved", "harness.check.reduction-preserved"),
    ("harness", "check_differential", "harness.check.differential"),
    ("harness", "check_step_preservation", "harness.check.step-preservation"),
)

# Functions whose defining module keeps its own, unwrapped binding. No
# module reaches syntax.all_names through the attribute, and the function
# recurses through its global once per syntax node, so wrapping it there
# would add a wrapper call per node and distort the time it reports.
HOME_UNWRAPPED = {("syntax", "all_names")}

# (module, function, counter name): calls counted, not timed. A call that
# returns None is not counted (a machine step on a value), nor is a call
# made while the same counter's function is already running (the source
# machine steps subterms through src_step).
COUNTERS = (
    ("source", "src_step", "source.steps"),
    ("target", "tgt_step", "target.steps"),
)
# (class in module heap, method, counter name)
METHOD_COUNTERS = (
    ("Heap", "alloc", "heap.alloc.calls"),
    ("Heap", "with_cell", "heap.with_cell.calls"),
)


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.program = array("i")
        self.stack: list[int] = []
        self.programs: list[str] = []
        self.counts: dict[str, int] = {}
        self.raised: dict[str, int] = {}

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_program(self, name: str) -> None:
        self.programs.append(name)

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.program.append(len(self.programs) - 1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - covered[i])
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name_of:
            name = self.names[nid]
            out[name] = out.get(name, 0) + 1
        return out

    def root_time(self) -> float:
        """Seconds covered by spans that have no parent."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.parent[i] < 0
        )

    def root_durations(self, name: str) -> dict[str, list[float]]:
        """Durations of the parentless spans called `name`, per program name,
        in the order they ran."""
        nid = self._ids.get(name)
        out: dict[str, list[float]] = {}
        for i in range(len(self.start)):
            if self.name_of[i] == nid and self.parent[i] < 0:
                prog = self.programs[self.program[i]]
                out.setdefault(prog, []).append(self.end[i] - self.start[i])
        return out

    def write_tsv(self, path) -> None:
        """Gzipped, one line per span: name, start, end, parent index, program."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tprogram\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.programs[self.program[i]]}\n"
                )


def span_wrapper(rec: Recorder, name: str, fn, counted_exc: type):
    """fn inside a span; exceptions of counted_exc escaping it are tallied."""
    nid = rec.intern(name)
    stack, name_of = rec.stack, rec.name_of

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if stack and name_of[stack[-1]] == nid:
            return fn(*args, **kwargs)
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        except counted_exc:
            rec.raised[name] = rec.raised.get(name, 0) + 1
            raise
        finally:
            rec.close(i)

    return traced


def counter_wrapper(rec: Recorder, name: str, fn):
    depth = 0

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        nonlocal depth
        depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            depth -= 1
        if depth == 0 and result is not None:
            rec.count(name)
        return result

    return counted


@dataclass
class Patch:
    """The bindings install replaced, so that undo can put them back."""

    saved: list[tuple[object, str, object]] = field(default_factory=list)

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def _rebind(patch: Patch, modules: dict, home: str, fn_name: str, wrapper) -> None:
    original = getattr(modules[home], fn_name)
    for mod_name, mod in modules.items():
        if mod_name == home and (home, fn_name) in HOME_UNWRAPPED:
            continue
        for attr in [a for a, v in vars(mod).items() if v is original]:
            patch.set(mod, attr, wrapper)


def install(rec: Recorder, modules: dict, counted_exc: type) -> Patch:
    """Wrap every traced function in `modules` (short name -> module, the
    package itself under "") and return the patch that undoes it."""
    patch = Patch()
    wrappers: dict[tuple[str, str], object] = {}
    for home, fn_name, name in SPANS:
        fn = getattr(modules[home], fn_name)
        wrappers[home, fn_name] = span_wrapper(rec, name, fn, counted_exc)
    for home, fn_name, name in COUNTERS:
        wrappers[home, fn_name] = counter_wrapper(rec, name, getattr(modules[home], fn_name))
    for (home, fn_name), wrapper in wrappers.items():
        _rebind(patch, modules, home, fn_name, wrapper)
    for cls_name, method, name in METHOD_COUNTERS:
        cls = getattr(modules["heap"], cls_name)
        patch.set(cls, method, counter_wrapper(rec, name, getattr(cls, method)))
    return patch
