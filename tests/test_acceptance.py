"""Acceptance suite.

Each test runs one headline property end to end at its stated budget and
prints a single ACCEPT line (visible under pytest -s or on failure) in
addition to the usual pytest verdict:

  a. compiled corpus and generated programs stay well-typed at their
     compiled source types (at least 30 corpus + 500 generated cases)
  b. compilation commutes with substitution on at least 500 generated
     triples, with no fuel shortfalls at the default budget
  c. every source machine step over the corpus is matched by the
     compiled program (at least 50 step pairs)
  d. source and compiled runs agree observationally on at least 200
     generated closed programs
  e. compiled corpus traces keep heaps well-formed, flags monotone and
     types shrinking, with zero violations
  f. the negative corpus fails with exactly the expected error kinds
  g. emitted pair-type models are byte-stable against the goldens
  h. fixed seeds reproduce reports, compiled output and traces byte for
     byte
"""

import time
from pathlib import Path

from dtalloc.alloc import translate
from dtalloc.errors import ErrKind, TypeCheckError
from dtalloc.harness import (
    GenSpec,
    check_differential,
    check_preservation,
    check_reduction_preserved,
    check_step_preservation,
    check_subst_commute,
    gen_cases,
    gen_lemma4,
    gen_typed,
    load_corpus,
    source_step_pairs,
    summary_line,
)
from dtalloc.heap import Config, Heap
from dtalloc.model import emit_model
from dtalloc.sexpr import Lang, ParseError, parse, print_expr
from dtalloc.source import src_infer
from dtalloc.syntax import Context, Sigma, UNIT_TY
from dtalloc.target import tgt_infer, tgt_trace, wf

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
NEGATIVE = CORPUS / "negative"
GOLDEN = HERE / "golden"


def announce(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPT {name}: {'pass' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed: {detail}"


def test_a_type_preservation_corpus_and_generated():
    t0 = time.time()
    corpus = load_corpus(CORPUS)
    reports = [check_preservation(name, Context(), e) for name, e in corpus]
    cases = gen_cases(count=500, depth=4, seed=0)
    reports += [check_preservation(cid, ctx, e) for cid, ctx, e, _ in cases]
    elapsed = time.time() - t0
    ok = (
        len(corpus) >= 30
        and len(cases) >= 500
        and all(r.verdict == "pass" for r in reports)
        and elapsed < 60
    )
    announce(
        "type-preservation",
        ok,
        f"{len(corpus)} corpus + {len(cases)} generated, "
        f"{summary_line(reports)}, {elapsed:.1f}s",
    )


def test_b_substitution_commutes():
    reports = []
    for i in range(500):
        ctx, x, a_ty, e, e2 = gen_lemma4(GenSpec(depth=4, seed=i))
        reports.append(check_subst_commute(f"subst{i}", ctx, x, a_ty, e, e2))
    ok = len(reports) >= 500 and all(r.verdict == "pass" for r in reports)
    fuel = sum(1 for r in reports if r.verdict == "fuel")
    announce("substitution", ok and fuel == 0, summary_line(reports))


def test_c_reduction_preserved_over_corpus():
    reports = []
    for name, e in load_corpus(CORPUS):
        for i, (a, b) in enumerate(source_step_pairs(e)):
            reports.append(check_reduction_preserved(f"{name}.{i}", a, b))
    ok = len(reports) >= 50 and all(r.verdict == "pass" for r in reports)
    announce("reduction-preserved", ok, f"{len(reports)} step pairs, {summary_line(reports)}")


def test_d_differential_observations():
    reports = []
    for i in range(200):
        _, e, _ = gen_typed(GenSpec(depth=4, seed=10_000 + i, closed=True))
        reports.append(check_differential(f"diff{i}", e))
    ok = len(reports) >= 200 and all(r.verdict == "pass" for r in reports)
    announce("differential", ok, summary_line(reports))


def test_e_step_preservation_and_heap_invariants():
    reports = [check_step_preservation(name, e) for name, e in load_corpus(CORPUS)]
    violations = [r for r in reports if r.verdict != "pass"]
    announce(
        "step-preservation",
        not violations,
        f"{len(reports)} traced programs, {len(violations)} violations",
    )


def test_f_negative_suite_exact_kinds():
    expected = {
        "fst_flag0.tgt": ErrKind.FLAG_ERROR,
        "assign2_first.tgt": ErrKind.FLAG_ERROR,
        "snd_flag10.tgt": ErrKind.FLAG_ERROR,
        "assign1_twice.tgt": ErrKind.FLAG_ERROR,
        "ctag_nonclo.tgt": ErrKind.NOT_A_FUNCTION,
        "pair_literal.tgt": ErrKind.LANG_VIOLATION,
        "unbound_var.src": ErrKind.UNBOUND_VAR,
        "annot_mismatch.src": ErrKind.ANNOT_MISMATCH,
        "sigma_mixed.src": ErrKind.UNIVERSE_ERROR,
        "app_nonfun.src": ErrKind.NOT_A_FUNCTION,
        "fst_nonpair.src": ErrKind.NOT_A_PAIR,
        "open_code.src": ErrKind.OPEN_CODE,
        "box_top.src": ErrKind.UNIVERSE_ERROR,
        "subtype_fail.src": ErrKind.SUBTYPE_FAIL,
    }
    parse_rejected = {"target_syntax.src", "flagged_sigma.src"}
    problems = []
    for path in sorted(NEGATIVE.iterdir()):
        text = path.read_text()
        if path.name in parse_rejected:
            try:
                parse(text, Lang.SOURCE)
                problems.append(f"{path.name}: parsed")
            except ParseError:
                pass
            continue
        want = expected[path.name]
        try:
            if path.suffix == ".tgt":
                e = parse(text, Lang.TARGET)
                wf(Lang.TARGET, e)
                tgt_infer(Heap(), Context(), e)
            else:
                src_infer(Context(), parse(text, Lang.SOURCE))
            problems.append(f"{path.name}: accepted")
        except TypeCheckError as err:
            if err.kind is not want:
                problems.append(f"{path.name}: {err.kind.value} wanted {want.value}")
    total = len(expected) + len(parse_rejected)
    detail = f"{total} cases" + "".join(f"; {p}" for p in problems)
    announce("negative-suite", not problems, detail)


def test_g_model_goldens_byte_stable():
    mismatches = []
    for f1, f2 in [(0, 0), (1, 0), (1, 1)]:
        ty = Sigma("x", UNIT_TY, f1, UNIT_TY, f2)
        frozen = (GOLDEN / f"model_sigma_{f1}{f2}.txt").read_text()
        if emit_model(ty) != frozen:
            mismatches.append(f"model_sigma_{f1}{f2}.txt")
    announce("model-goldens", not mismatches, "3 files" + "".join(f"; {m}" for m in mismatches))


def test_h_determinism_under_fixed_seeds():
    def report_lines():
        out = []
        for cid, ctx, e, _ in gen_cases(count=40, depth=4, seed=123):
            out.append(check_preservation(cid, ctx, e).to_json())
        return out

    def compiled_corpus():
        return [
            print_expr(translate(Context(), e), Lang.TARGET)
            for _, e in load_corpus(CORPUS)
        ]

    def corpus_traces():
        out = []
        for _, e in load_corpus(CORPUS):
            out.extend(tgt_trace(translate(Context(), e)))
        return out

    ok = (
        report_lines() == report_lines()
        and compiled_corpus() == compiled_corpus()
        and corpus_traces() == corpus_traces()
    )
    announce("determinism", ok)
