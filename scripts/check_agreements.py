#!/usr/bin/env python3
"""Compare each fast path with its oracle on one list of programs.

    python3 scripts/check_agreements.py

The programs are 300 generated closed programs (depth 4, seeds 0-299)
and the families at sizes 1-12, built once. Four comparisons run on
them, and each prints one summary line:

  local step check   step-preservation's default check and local=False,
                     which types every whole state, give equal reports
  untraced runs      each machine's untraced run, which keeps let-bound
                     values in an environment, ends in the last state of
                     its traced run, which substitutes them, or raises
                     the same error; as source and compiled
  one-step runs      each machine's traced run, which goes on from each
                     contractum, takes the steps of its one-step function
                     applied from the root until the term is a value, or
                     raises the same error; as source and compiled
  printer            print_expr, which runs renderers generated from the
                     printer plans, gives the text of the reference
                     renderer in tests/test_sexpr.py, or raises the same
                     error; as source and compiled, in both languages

Each disagreement is printed on a line of its own. The script exits 1 on
any disagreement, else 0.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from families import FAMILIES  # noqa: E402
from test_sexpr import reference_print  # noqa: E402

from dtalloc.alloc import translate  # noqa: E402
from dtalloc.conversion import DEFAULT_FUEL  # noqa: E402
from dtalloc.errors import FuelExhausted, StuckError  # noqa: E402
from dtalloc.harness import GenSpec, check_step_preservation, gen_typed  # noqa: E402
from dtalloc.heap import Config, Heap  # noqa: E402
from dtalloc.sexpr import Lang, parse, print_expr  # noqa: E402
from dtalloc.source import src_eval, src_step, src_steps  # noqa: E402
from dtalloc.syntax import Context  # noqa: E402
from dtalloc.target import tgt_eval, tgt_step, tgt_steps  # noqa: E402


def programs() -> list:
    out = [(f"gen{s}", gen_typed(GenSpec(depth=4, seed=s, closed=True))[1]) for s in range(300)]
    out += [(f"{f}/{n}", parse(FAMILIES[f](n))) for f in sorted(FAMILIES) for n in range(1, 13)]
    return out


def outcome(fn, *args, errors=(StuckError, FuelExhausted)):
    """What fn(*args) returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except errors as err:
        return type(err).__name__, str(err)


def local_step_check(name, e):
    local = check_step_preservation(name, e)
    whole = check_step_preservation(name, e, local=False)
    if local != whole:
        yield f"{name}: local {local} but whole states {whole}"


def untraced_runs(name, e):
    for lang, term, run, steps in (
        ("source", e, src_eval, src_steps),
        ("target", translate(Context(), e), tgt_eval, tgt_steps),
    ):
        untraced = outcome(run, term)
        traced = outcome(lambda t: steps(t)[-1][0], term)
        if untraced != traced:
            yield f"{name} {lang}: untraced {untraced} but traced {traced}"


def from_the_root(step, start):
    """The (state, rule) pairs of step applied from the root of each state
    until it returns None, from (start, "init"), at the traced runs' fuel."""
    states = [(start, "init")]
    while (r := step(states[-1][0])) is not None:
        if len(states) > DEFAULT_FUEL:
            raise FuelExhausted(DEFAULT_FUEL)
        states.append(r)
    return states


def one_step_runs(name, e):
    te = translate(Context(), e)
    for lang, term, start, step, steps in (
        ("source", e, e, src_step, src_steps),
        ("target", te, Config(Heap(), te), tgt_step, tgt_steps),
    ):
        traced = outcome(steps, term)
        stepped = outcome(from_the_root, step, start)
        if traced != stepped:
            yield f"{name} {lang}: traced {traced!r:.200} but one-step {stepped!r:.200}"


def printer(name, e):
    for form, term in (("source", e), ("compiled", translate(Context(), e))):
        for lang in Lang:
            got = outcome(print_expr, term, lang, errors=ValueError)
            want = outcome(reference_print, term, lang, errors=ValueError)
            if got != want:
                yield (f"{name} {form} as {lang.value}: printed {got!r:.200} "
                       f"but the reference gives {want!r:.200}")


COMPARISONS = (("local step check", local_step_check), ("untraced runs", untraced_runs),
               ("one-step runs", one_step_runs), ("printer", printer))


def main() -> int:
    progs = programs()
    failed = False
    for title, compare in COMPARISONS:
        bad = 0
        for name, e in progs:
            for line in compare(name, e):
                bad += 1
                print(line)
        print(f"{title}: {len(progs)} programs, {bad} disagreements")
        failed = failed or bad > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
