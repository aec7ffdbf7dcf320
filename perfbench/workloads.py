"""The benchmark's workloads: their inputs, one pass over them, and the
checks that every verdict matches its known answer.

A pass runs each program of the workload's fixed input set once, in one
process, one program at a time (a closed loop). All calls go through the
module objects in a ``Dtalloc`` so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import calibrate
from perfbench.families import FAMILIES

HERE = Path(__file__).resolve().parent
ANSWERS = HERE / "answers.json"
DIGESTS = HERE / "digests.json"

MODULES = (
    "syntax", "errors", "heap", "sexpr", "conversion", "source", "target",
    "alloc", "harness", "model", "cli",
)

# scaling: every family at every size runs the compile pipeline and the
# differential check; step-preservation, about 25 times the cost of
# tgt_infer, runs on the sizes in STEP_SIZES only. The ladder stops at 8:
# size 16 took 1.5 s a program, too long for a run to catch undisturbed
# stretches of a shared machine often enough to time it steadily.
SIZES = (1, 2, 4, 8)
STEP_SIZES = (1, 2, 4)

# generated: cases per pass and generator depth (run_preservation.py's default).
# The cases use harness seeds 0 .. GEN_CASES-1 whatever the benchmark seed,
# which only shuffles their order: sets drawn per benchmark seed differed by
# 8% in compiled size at 600 cases, more than a useful bound allows.
GEN_CASES = 200
GEN_DEPTH = 4

CORPUS_CHECKS = ("type-preservation", "reduction-preserved", "differential",
                 "step-preservation", "model")


class Dtalloc:
    """The dtalloc modules of one import, by short name.

    Each instance imports dtalloc anew (dropping any earlier import), so
    that every set-up a run times includes the import.
    """

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "dtalloc" or m.startswith("dtalloc.")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        pkg = importlib.import_module("dtalloc")
        if Path(pkg.__file__).resolve().parent != (src / "dtalloc").resolve():
            raise RuntimeError(f"imported dtalloc from {pkg.__file__}, not from {src}")
        self.modules = {"": pkg}
        for name in MODULES:
            self.modules[name] = importlib.import_module(f"dtalloc.{name}")
        for name, mod in self.modules.items():
            if name:
                setattr(self, name, mod)


# ---------------------------------------------------------------------------
# Inputs

@dataclass(frozen=True)
class SourceProgram:
    """A positive program given as source text."""

    name: str
    text: str
    checks: tuple[str, ...]
    digest: str | None
    observation: str | None = None


@dataclass(frozen=True)
class NegativeProgram:
    """A file that `dtalloc check` must reject with a documented exit code
    and exactly one `error[Kind]` line."""

    name: str
    path: str
    lang: str
    exit: int
    kind: str


@dataclass(frozen=True)
class GeneratedCase:
    """One harness-generated case: the open, substitution and closed
    programs that the generator draws from one seed."""

    seed: int

    @property
    def name(self) -> str:
        return f"gen{self.seed}"


def load_answers() -> dict:
    return json.loads(ANSWERS.read_text())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())["digests"]


def _digest_for(digests: dict | None, key: str) -> str | None:
    """The recorded digest of a program; None only while recording."""
    if digests is None:
        return None
    if key not in digests:
        raise KeyError(f"no recorded output digest for {key}; see perfbench/record_digests.py")
    return digests[key]


def corpus_programs(root: Path, answers: dict, digests: dict | None) -> list:
    """Every corpus file paired with its known answer; a file without an
    answer, or an answer without a file, is an error."""
    corpus = root / "corpus"
    pos_files = {p.stem: p for p in corpus.glob("*.src")}
    neg_files = {p.name: p for p in (corpus / "negative").iterdir() if p.is_file()}
    missing = sorted(set(pos_files) ^ set(answers["corpus"])) + sorted(
        set(neg_files) ^ set(answers["negative"])
    )
    if missing:
        raise KeyError(f"corpus files and known answers disagree on: {', '.join(missing)}")
    out: list = [
        SourceProgram(
            name, pos_files[name].read_text(), CORPUS_CHECKS, _digest_for(digests, f"corpus/{name}")
        )
        for name in sorted(pos_files)
    ]
    for fname in sorted(neg_files):
        want = answers["negative"][fname]
        lang = "target" if fname.endswith(".tgt") else "source"
        path = str(neg_files[fname])
        out.append(NegativeProgram(fname, path, lang, want["exit"], want["kind"]))
    return out


def scaling_programs(digests: dict | None) -> list[SourceProgram]:
    out = []
    for make in FAMILIES.values():
        for n in SIZES:
            fp = make(n)
            checks = ("differential", "step-preservation") if n in STEP_SIZES else ("differential",)
            out.append(
                SourceProgram(
                    fp.name, fp.text, checks, _digest_for(digests, f"scaling/{fp.name}"),
                    fp.observation,
                )
            )
    return out


def validate_families(dt: Dtalloc, programs: list[SourceProgram]) -> None:
    """Each family program must parse and typecheck, so a broken generator
    cannot turn into a fast, empty workload."""
    for prog in programs:
        e = dt.sexpr.parse(prog.text, dt.sexpr.Lang.SOURCE)
        dt.source.src_wf(e)
        dt.source.src_infer(dt.syntax.Context(), e)


def generated_cases() -> list[GeneratedCase]:
    return [GeneratedCase(i) for i in range(GEN_CASES)]


# ---------------------------------------------------------------------------
# One pass

@dataclass
class PassResult:
    wall_s: float = 0.0
    verdict_ms: list[float] = field(default_factory=list)
    compile_ms: list[float] = field(default_factory=list)
    tgt_check_ms: list[float] = field(default_factory=list)
    run_ms: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)  # reference job times between programs
    reports: int = 0
    reports_passed: int = 0
    code_nodes: int = 0
    source_nodes: int = 0
    heap_cells: int = 0
    attempted: int = 0
    wrong: list[str] = field(default_factory=list)

    def expect(self, ok: bool, name: str, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.wrong.append(f"{name}: {what}")


def node_count(dt: Dtalloc, e) -> int:
    expr = dt.syntax.Expr
    count, stack = 0, [e]
    while stack:
        cur = stack.pop()
        count += 1
        for f in cur.__dataclass_fields__:
            if f != "pos":
                val = getattr(cur, f)
                if isinstance(val, expr):
                    stack.append(val)
    return count


def _stages(dt: Dtalloc, e, text: str | None, out: PassResult):
    """Compile, target check and run one closed source program, timing
    each stage; returns what the checks and the digest need."""
    Lang, Context, Heap = dt.sexpr.Lang, dt.syntax.Context, dt.heap.Heap
    ctx = Context()
    t0 = time.thread_time()
    if text is not None:
        e = dt.sexpr.parse(text, Lang.SOURCE)
    src_ty = dt.source.src_infer(ctx, e)
    te = dt.alloc.translate(ctx, e)
    compiled = dt.sexpr.print_expr(te, Lang.TARGET)
    t1 = time.thread_time()
    want = dt.alloc.translate(ctx, src_ty)
    t2 = time.thread_time()
    got = dt.target.tgt_infer(Heap(), ctx, te)
    below = dt.target.tgt_subtype(Heap(), ctx, got, want)
    t3 = time.thread_time()
    final = dt.target.tgt_eval(te)
    t4 = time.thread_time()
    out.compile_ms.append((t1 - t0) * 1e3)
    out.tgt_check_ms.append((t3 - t2) * 1e3)
    out.run_ms.append((t4 - t3) * 1e3)
    out.code_nodes += node_count(dt, te)
    out.source_nodes += node_count(dt, e)
    out.heap_cells += len(final.heap.cells)
    return e, src_ty, te, compiled, got, below, final


def _observe(dt: Dtalloc, e, final) -> tuple[str, str]:
    """The target run's observation and the source machine's, the
    independent reference for it."""
    reference = dt.harness.readback(dt.heap.Config(dt.heap.Heap(), dt.source.src_eval(e)))
    return dt.harness.readback(final), reference


def run_source_program(dt: Dtalloc, prog: SourceProgram, out: PassResult) -> str:
    """Run one positive program and check it; returns its output digest."""
    t0 = time.thread_time()
    e, src_ty, te, compiled, got, below, final = _stages(dt, None, prog.text, out)
    observed, reference = _observe(dt, e, final)
    h, Context = dt.harness, dt.syntax.Context
    reports = []
    model = ""
    if "model" in prog.checks:
        model = dt.model.emit_model(te)
    if "type-preservation" in prog.checks:
        reports.append(h.check_preservation(prog.name, Context(), e))
    if "reduction-preserved" in prog.checks:
        for i, (a, b) in enumerate(h.source_step_pairs(e)):
            reports.append(h.check_reduction_preserved(f"{prog.name}.{i}", a, b))
    if "differential" in prog.checks:
        reports.append(h.check_differential(prog.name, e))
    if "step-preservation" in prog.checks:
        reports.append(h.check_step_preservation(prog.name, e))
    out.verdict_ms.append((time.thread_time() - t0) * 1e3)

    out.expect(below, prog.name, "compiled term does not type below its compiled source type")
    out.expect(observed == reference, prog.name, f"target saw {observed}, source saw {reference}")
    if prog.observation is not None:
        out.expect(observed == prog.observation, prog.name,
                   f"observed {observed}, the family promises {prog.observation}")
    _tally(reports, prog.name, out)
    now = program_digest(dt, compiled, src_ty, got, model, reports)
    if prog.digest is not None:
        out.expect(now == prog.digest, prog.name, "output bytes differ from the recorded digest")
    return now


def program_digest(dt: Dtalloc, compiled, src_ty, tgt_ty, model, reports) -> str:
    """sha256 of the outputs that must stay byte-identical."""
    Lang = dt.sexpr.Lang
    parts = [compiled, dt.sexpr.print_expr(src_ty, Lang.SOURCE),
             dt.sexpr.print_expr(tgt_ty, Lang.TARGET), model, *(r.line() for r in reports)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _tally(reports, name: str, out: PassResult) -> None:
    for r in reports:
        out.reports += 1
        out.reports_passed += r.verdict == "pass"
        out.expect(r.verdict == "pass", name, f"{r.line()} {r.detail}".strip())


def run_negative(dt: Dtalloc, prog: NegativeProgram, out: PassResult) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.thread_time()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = dt.cli.main(["check", prog.path, "--lang", prog.lang])
    out.verdict_ms.append((time.thread_time() - t0) * 1e3)
    lines = stderr.getvalue().splitlines()
    ok = code == prog.exit and len(lines) == 1 and lines[0].startswith(f"error[{prog.kind}] ")
    out.expect(ok, prog.name, f"exit {code} with {lines!r}, wanted exit {prog.exit} "
                              f"and one error[{prog.kind}] line")


def run_generated(dt: Dtalloc, case: GeneratedCase, out: PassResult) -> None:
    h = dt.harness
    t0 = time.thread_time()
    cid, ctx, e_open, _ = h.gen_cases(1, depth=GEN_DEPTH, seed=case.seed)[0]
    lemma = h.gen_lemma4(h.GenSpec(depth=GEN_DEPTH, seed=case.seed))
    _, e, _ = h.gen_typed(h.GenSpec(depth=GEN_DEPTH, seed=case.seed, closed=True))
    e, _, _, _, _, below, final = _stages(dt, e, None, out)
    observed, reference = _observe(dt, e, final)
    reports = [
        h.check_preservation(cid, ctx, e_open),
        h.check_subst_commute(f"subst{case.seed}", *lemma),
        h.check_differential(f"diff{case.seed}", e),
    ]
    out.verdict_ms.append((time.thread_time() - t0) * 1e3)
    out.expect(below, case.name, "compiled term does not type below its compiled source type")
    out.expect(observed == reference, case.name, f"target saw {observed}, source saw {reference}")
    _tally(reports, case.name, out)


def run_program(dt: Dtalloc, prog, out: PassResult) -> None:
    """Run one program; a crash is a wrong verdict, not the end of the pass."""
    try:
        if isinstance(prog, SourceProgram):
            run_source_program(dt, prog, out)
        elif isinstance(prog, NegativeProgram):
            run_negative(dt, prog, out)
        else:
            run_generated(dt, prog, out)
    except Exception as err:  # noqa: BLE001 - recorded as a wrong verdict
        out.expect(False, prog.name, f"crashed: {type(err).__name__}: {err}")


TIMINGS = ("verdict_ms", "compile_ms", "tgt_check_ms", "run_ms")


def run_pass(dt: Dtalloc, programs: list, rec=None, ref_jobs: int = 0) -> PassResult:
    """Run every program once.

    With ref_jobs, that many reference jobs run before each program and
    after the last, and each program's times are scaled to the nominal
    machine by the reference jobs just before and just after it (see
    calibrate.Reference.scale)."""
    out = PassResult()
    t0 = time.perf_counter()
    before = calibrate.PROGRAMS.ms(ref_jobs) if ref_jobs else None
    for prog in programs:
        if rec is not None:
            rec.begin_program(prog.name)
        marks = [len(getattr(out, attr)) for attr in TIMINGS]
        run_program(dt, prog, out)
        if before is not None:
            after = calibrate.PROGRAMS.ms(ref_jobs)
            factor = calibrate.PROGRAMS.scale(before, after)
            for attr, mark in zip(TIMINGS, marks):
                times = getattr(out, attr)
                times[mark:] = [t * factor for t in times[mark:]]
            out.ref_ms.append(before)
            before = after
    if before is not None:
        out.ref_ms.append(before)
    out.wall_s = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------
# Set-up

@dataclass
class Workload:
    dt: Dtalloc
    programs: list
    min_passes: int


def setup(workload: str, root: Path, seed: int) -> Workload:
    """Import dtalloc from root/src and build the workload's inputs."""
    dt = Dtalloc(root / "src")
    if workload == "corpus":
        programs = corpus_programs(root, load_answers(), load_digests())
        random.Random(seed).shuffle(programs)
        return Workload(dt, programs, min_passes=10)
    if workload == "generated":
        programs = generated_cases()
        random.Random(seed).shuffle(programs)
        return Workload(dt, programs, min_passes=3)
    if workload == "scaling":
        programs = scaling_programs(load_digests())
        validate_families(dt, programs)
        random.Random(seed).shuffle(programs)
        return Workload(dt, programs, min_passes=4)
    raise KeyError(f"unknown workload {workload!r}")


WORKLOADS = ("corpus", "generated", "scaling")
