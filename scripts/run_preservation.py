#!/usr/bin/env python3
"""Run the full property suite over the corpus and a batch of generated
programs, printing one CASE line per check and a summary per suite.

    python3 scripts/run_preservation.py

It exits 1 if any check fails or runs out of fuel. Its output, less the
elapsed line, is tests/golden/run_preservation.txt."""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dtalloc.harness import (  # noqa: E402
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
    verdict_counts,
)
from dtalloc.syntax import Context  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# generated preservation, substitution and differential cases, and the
# generator's depth and first seed
COUNT, SUBST, DIFF, DEPTH, SEED = 500, 500, 200, 4, 0


def main() -> int:
    t0 = time.time()
    failures = 0

    def show(reports, label):
        nonlocal failures
        for r in reports:
            print(r.line())
        print(f"{label}: {summary_line(reports)}")
        counts = verdict_counts(reports)
        failures += counts["failed"] + counts["fuel"]

    corpus = load_corpus(CORPUS)
    reports = [check_preservation(name, Context(), e) for name, e in corpus]
    reports += [
        check_preservation(cid, ctx, e)
        for cid, ctx, e, _ in gen_cases(COUNT, DEPTH, SEED)
    ]
    show(reports, "type-preservation")

    reports = []
    for i in range(SUBST):
        ctx, x, a_ty, e, e2 = gen_lemma4(GenSpec(depth=DEPTH, seed=SEED + i))
        reports.append(check_subst_commute(f"subst{SEED + i}", ctx, x, a_ty, e, e2))
    show(reports, "substitution")

    reports = []
    for name, e in corpus:
        for i, (s, s2) in enumerate(source_step_pairs(e)):
            reports.append(check_reduction_preserved(f"{name}.{i}", s, s2))
    show(reports, "reduction-preserved")

    reports = [check_differential(name, e) for name, e in corpus]
    for i in range(DIFF):
        _, e, _ = gen_typed(GenSpec(depth=DEPTH, seed=SEED + i, closed=True))
        reports.append(check_differential(f"diff{SEED + i}", e))
    show(reports, "differential")

    reports = [check_step_preservation(name, e) for name, e in corpus]
    show(reports, "step-preservation")

    print(f"elapsed: {time.time() - t0:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
