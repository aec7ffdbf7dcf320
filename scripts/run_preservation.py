#!/usr/bin/env python3
"""Run the full property suite over the corpus and a batch of generated
programs, printing one CASE line per check and a summary per suite."""

import argparse
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=str(Path(__file__).resolve().parent.parent / "corpus"))
    ap.add_argument("--count", type=int, default=500, help="generated preservation cases")
    ap.add_argument("--subst", type=int, default=500, help="generated substitution cases")
    ap.add_argument("--diff", type=int, default=200, help="generated differential cases")
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quiet", action="store_true", help="summaries only")
    args = ap.parse_args()

    t0 = time.time()
    failures = 0

    def show(reports, label):
        nonlocal failures
        if not args.quiet:
            for r in reports:
                print(r.line())
        print(f"{label}: {summary_line(reports)}")
        counts = verdict_counts(reports)
        failures += counts["failed"] + counts["fuel"]

    corpus = load_corpus(args.corpus)
    reports = [check_preservation(name, Context(), e) for name, e in corpus]
    reports += [
        check_preservation(cid, ctx, e)
        for cid, ctx, e, _ in gen_cases(args.count, args.depth, args.seed)
    ]
    show(reports, "type-preservation")

    reports = []
    for i in range(args.subst):
        ctx, x, a_ty, e, e2 = gen_lemma4(GenSpec(depth=args.depth, seed=args.seed + i))
        reports.append(check_subst_commute(f"subst{args.seed + i}", ctx, x, a_ty, e, e2))
    show(reports, "substitution")

    reports = []
    for name, e in corpus:
        for i, (s, s2) in enumerate(source_step_pairs(e)):
            reports.append(check_reduction_preserved(f"{name}.{i}", s, s2))
    show(reports, "reduction-preserved")

    reports = [check_differential(name, e) for name, e in corpus]
    for i in range(args.diff):
        _, e, _ = gen_typed(GenSpec(depth=args.depth, seed=args.seed + i, closed=True))
        reports.append(check_differential(f"diff{args.seed + i}", e))
    show(reports, "differential")

    reports = [check_step_preservation(name, e) for name, e in corpus]
    show(reports, "step-preservation")

    print(f"elapsed: {time.time() - t0:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
