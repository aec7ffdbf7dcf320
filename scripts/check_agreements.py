#!/usr/bin/env python3
"""Compare each fast path with its oracle on one list of programs.

    python3 scripts/check_agreements.py

The programs are 300 generated closed programs (depth 4, seeds 0-299),
the families at sizes 1-12, the corpus and the dependent programs of
tests/families.py at sizes 1-8, built once. Seven comparisons run on
them, and each prints one summary line:

  local step check   step-preservation's default check and local=False,
                     which types every whole state, give equal reports;
                     the line also counts the steps the default check
                     kept whose previous type holds a location or the
                     redex, carrying the type onto the new state, and
                     the let steps it kept that expose a let
  carried types      on each such kept step, the carried type and the
                     type of the whole new state are subtypes of each
                     other under the new state's heap
  untraced runs      each machine's untraced run, which keeps let-bound
                     values in an environment, ends in the last state of
                     its traced run, which substitutes them, or raises
                     the same error; as source and compiled
  one-step runs      each machine's traced run, which goes on from each
                     contractum, takes the steps of its one-step function
                     applied from the root until the term is a value, or
                     raises the same error; as source and compiled
  closed substitution
                     in each traced run, as source and compiled, every
                     let and application contraction substitutes closed
                     values, and the substitution that renames nothing
                     (syntax._closed_subst) and the machine's contractum
                     equal _psubst's result node for node, positions
                     included; the line counts the contractions compared
  printer            print_expr, which runs renderers generated from the
                     printer plans, gives the text of the reference
                     renderer in tests/test_sexpr.py, or raises the same
                     error; as source and compiled, in both languages
  environment normalization
                     while every check of the harness runs, each top-level
                     normalization, which binds let values in an
                     environment, gives the normal form, fuel left and
                     scratch heap cells of the same normalization with no
                     value bound, which substitutes every let; each
                     program is parsed afresh, and the line counts the
                     lets bound

Each disagreement is printed on a line of its own. The script exits 1 on
any disagreement, when the default check kept no step of one of the two
kinds it counts, when no contraction was compared, or when no let was
bound, else 0.
"""

import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from families import DEPENDENT, FAMILIES  # noqa: E402
from test_conversion import beside_substitution, every_check  # noqa: E402
from test_harness import dependent_steps  # noqa: E402
from test_sexpr import reference_print  # noqa: E402
from test_syntax import same_nodes  # noqa: E402

from dtalloc import harness, source, target  # noqa: E402
from dtalloc.alloc import translate  # noqa: E402
from dtalloc.conversion import DEFAULT_FUEL, subtype  # noqa: E402
from dtalloc.errors import FuelExhausted, StuckError, TypeCheckError  # noqa: E402
from dtalloc.harness import GenSpec, check_step_preservation, gen_typed, load_corpus  # noqa: E402
from dtalloc.heap import Config, Heap  # noqa: E402
from dtalloc.sexpr import Lang, parse, print_expr  # noqa: E402
from dtalloc.source import src_eval, src_step, src_steps  # noqa: E402
from dtalloc.syntax import Context, _closed_subst, _psubst, free_vars  # noqa: E402
from dtalloc.target import tgt_eval, tgt_infer, tgt_step, tgt_steps  # noqa: E402


def programs() -> list:
    out = [(f"gen{s}", gen_typed(GenSpec(depth=4, seed=s, closed=True))[1]) for s in range(300)]
    out += [(f"{f}/{n}", parse(FAMILIES[f](n))) for f in sorted(FAMILIES) for n in range(1, 13)]
    out += load_corpus(ROOT / "corpus")
    out += [(f"{f}/{n}", parse(DEPENDENT[f](n))) for f in sorted(DEPENDENT) for n in range(1, 9)]
    return out


def outcome(fn, *args, errors=(StuckError, FuelExhausted)):
    """What fn(*args) returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except errors as err:
        return type(err).__name__, str(err)


def local_step_check(name, e, kept):
    """Disagreements of the two checks on e; kept counts the dependent
    steps and the exposed-let steps that the default check kept."""
    keeps = harness._step_keeps_type

    def counted(prev, prev_ty, cfg):
        ty = keeps(prev, prev_ty, cfg)
        kept["exposed-let"] += ty is not None and harness._exposes_let(*cfg.step[1:])
        return ty

    harness._step_keeps_type = counted
    try:
        local, seen = dependent_steps(name, e)
    finally:
        harness._step_keeps_type = keeps
    kept["dependent"] += sum(ty is not None for *_, ty in seen)
    whole = check_step_preservation(name, e, local=False)
    if local != whole:
        yield f"{name}: local {local} but whole states {whole}"


def carried_types(name, e):
    for _, _, cfg, ty in dependent_steps(name, e)[1]:
        if ty is None:
            continue
        try:
            whole = tgt_infer(cfg.heap, Context(), cfg.expr)
            agree = subtype(Context(), ty, whole, cfg.heap) and subtype(Context(), whole, ty, cfg.heap)
            whole = print_expr(whole, Lang.TARGET)
        except (TypeCheckError, FuelExhausted) as err:
            whole, agree = f"{type(err).__name__}: {err}", False
        if not agree:
            yield (f"{name}: carried {print_expr(ty, Lang.TARGET):.200} but the state "
                   f"{print_expr(cfg.expr, Lang.TARGET):.200} types at {whole:.200}")


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


def _substitution(heap, redex, rule):
    """The term and the substitution that the let or application rule
    applies to redex against heap, or None for any other rule."""
    if rule == "let":
        return redex.body, {redex.binder: redex.bound}
    if rule in ("app-clo", "app-ctag"):
        if rule == "app-clo":
            code, env = redex.fn.code, redex.fn.env
        else:
            cell = heap.cell(redex.fn.expr.loc_id)
            code, env = cell.read(1), cell.read(2)
        return code.body, {code.env_binder: env, code.arg_binder: redex.arg}
    return None


def closed_substitutions(name, e, counted):
    for lang, machine, heap, term in (
        ("source", source._MACHINE, None, e),
        ("target", target._MACHINE, Heap(), translate(Context(), e)),
    ):
        try:
            for after, _, rule, _, redex, c in machine.steps(heap, term, DEFAULT_FUEL):
                found = _substitution(heap, redex, rule)
                heap = after
                if found is None:
                    continue
                body, sub = found
                counted["let and application"] += 1
                if any(free_vars(w) for w in sub.values()):
                    yield f"{name} {lang}: {rule} substitutes an open value"
                    continue
                want = _psubst(body, dict(sub))
                if not (same_nodes(_closed_subst(body, dict(sub)), want) and same_nodes(c, want)):
                    yield (f"{name} {lang}: {rule} of {print_expr(redex, Lang.TARGET):.200} "
                           f"substitutes closed values otherwise than _psubst")
        except (StuckError, FuelExhausted):
            pass  # the untraced runs' comparison sees the error; the steps before it count


def printer(name, e):
    for form, term in (("source", e), ("compiled", translate(Context(), e))):
        for lang in Lang:
            got = outcome(print_expr, term, lang, errors=ValueError)
            want = outcome(reference_print, term, lang, errors=ValueError)
            if got != want:
                yield (f"{name} {form} as {lang.value}: printed {got!r:.200} "
                       f"but the reference gives {want!r:.200}")


def environment_normalization(name, e, counted):
    # a fresh parse, which carries none of the judgements that the earlier
    # comparisons kept on e's nodes and that would answer for normalization
    with beside_substitution() as tally:
        every_check(name, parse(print_expr(e)))
    counted["lets"] += tally["lets bound"]
    yield from (f"{name}: {line}" for line in tally["disagreements"])


def main() -> int:
    progs = programs()
    kept = {"dependent": 0, "exposed-let": 0}
    contractions = {"let and application": 0}
    normalized = {"lets": 0}
    # each comparison, with the counts its line reports, by kind, and what
    # they count; a count of 0 fails the run
    comparisons = (
        ("local step check", partial(local_step_check, kept=kept), kept, "steps kept"),
        ("carried types", carried_types, None, None),
        ("untraced runs", untraced_runs, None, None),
        ("one-step runs", one_step_runs, None, None),
        ("closed substitution", partial(closed_substitutions, counted=contractions),
         contractions, "contractions compared"),
        ("printer", printer, None, None),
        ("environment normalization", partial(environment_normalization, counted=normalized),
         normalized, "bound"),
    )
    failed = False
    for title, compare, counts, what in comparisons:
        bad = 0
        for name, e in progs:
            for line in compare(name, e):
                bad += 1
                print(line)
        line = f"{title}: {len(progs)} programs, {bad} disagreements"
        if counts is not None:
            line += ", " + ", ".join(f"{n:,} {kind} {what}" for kind, n in counts.items())
            bad += not all(counts.values())
        print(line)
        failed = failed or bad > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
