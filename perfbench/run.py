#!/usr/bin/env python3
"""Run one workload of the dtalloc benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

It imports dtalloc from the src/ directory next to perfbench/ and reads
corpus/ there. It sets the workload up, then repeats passes over the
workload's fixed input set until --seconds have gone by; between passes it
sets the workload up again, SETUP_REPEATS times in all, and set-up time is
the median. Every verdict is compared with its known answer;
on any wrong verdict the run prints what went wrong to stderr and exits 1
without a result.

Times are CPU times of the benchmark's thread, scaled to a nominal
machine. On a shared machine the CPU's speed changes by up to 2x within
milliseconds, so a fixed reference job (calibrate.py) runs between every
two programs, and each program's time is multiplied by the reference
job's nominal time over its mean time just before and just after the
program. Set-ups are scaled the same way, by a reference job of their own. Each program's time is then its
median over the run's passes, and percentiles are taken over the program
runs, each counted at its program's median time.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics. With --trace 1 the run spends part of its time on
untraced passes and the rest on passes whose calls into dtalloc are
wrapped in spans, and reports the per-layer metrics instead. The lines
before the last one repeat the metrics for people, with the tail
percentile used, sample counts, error_frac and the line count of src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, spans, stats, workloads  # noqa: E402

SETUP_REPEATS = 25
REF_JOBS_PER_PASS = 24  # reference jobs, at least, spread over each timed pass
SETUP_REF_JOBS = 8  # reference jobs before and after each set-up
TRACE_PLAIN_SHARE = 0.4  # of --seconds, spent on untraced passes in a traced run
GROWTH_LAYERS = ("target.tgt_infer", "target.tgt_eval", "harness.check.step-preservation")
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in spans.SPANS))
CONVERSION = ("conversion.normalize", "conversion.equiv", "conversion.subtype")


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in output order."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.ms", "ms"), (f"{name}.calls", "count")]
    out += [(name, "count") for _, _, name in spans.COUNTERS + spans.METHOD_COUNTERS]
    out += [("conversion.calls", "count"), ("conversion.fuel_outs", "count"),
            ("alloc.blowup", "ratio"), ("harness.pass_ratio", "ratio")]
    for layer in GROWTH_LAYERS:
        out += [(f"{layer}.growth.{fam}", "exponent") for fam in workloads.FAMILIES]
    out += [("trace.pass_s", "s"), ("trace.plain_pass_s", "s"), ("trace.overhead_s", "s"),
            ("trace.outside_ms", "ms")]
    return out


END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("verdict_ms.p50", "ms"), ("verdict_ms.tail", "ms"),
    ("compile_ms.p50", "ms"), ("tgt_check_ms.p50", "ms"), ("run_ms.p50", "ms"),
    ("checks_per_s", "1/s"), ("code_nodes", "count"), ("heap_cells", "count"),
    ("peak_rss_mb", "MB"),
)


class WrongVerdict(Exception):
    pass


def timed_passes(w: workloads.Workload, seconds: float, min_passes: int, rec=None,
                 after_pass=None, ref_jobs: int = 0) -> list:
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        result = workloads.run_pass(w.dt, w.programs, rec, ref_jobs)
        if result.wrong:
            raise WrongVerdict("\n".join(result.wrong))
        passes.append(result)
        if after_pass is not None:
            after_pass(time.perf_counter() - t0)
    return passes


def _dtalloc_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "dtalloc" or k.startswith("dtalloc.")}


def timed_setup(workload: str, seed: int) -> tuple[workloads.Workload, float]:
    """Set the workload up; returns it and the set-up's scaled seconds."""
    ref = calibrate.SETUP
    before = ref.ms(SETUP_REF_JOBS)
    t0 = time.thread_time()
    w = workloads.setup(workload, ROOT, seed)
    elapsed = time.thread_time() - t0
    return w, elapsed * ref.scale(before, ref.ms(SETUP_REF_JOBS))


def repeat_setup(workload: str, seed: int) -> float:
    """Time one more set-up, then put back the modules the passes use:
    dtalloc imports some names at call time, and they must come from the
    same import as the terms they meet."""
    kept = _dtalloc_modules()
    _, elapsed = timed_setup(workload, seed)
    for name in _dtalloc_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return elapsed


def _same(passes: list, attr: str) -> int:
    values = {getattr(p, attr) for p in passes}
    if len(values) != 1:
        raise WrongVerdict(f"{attr} differs between passes over the same input: {sorted(values)}")
    return values.pop()


def median_times(passes: list, attr: str) -> list[float]:
    """Each program's median time over the passes, in program order."""
    return [statistics.median(times) for times in zip(*(getattr(p, attr) for p in passes))]


def ref_jobs_per_program(w: workloads.Workload) -> int:
    return max(1, math.ceil(REF_JOBS_PER_PASS / len(w.programs)))


def end_to_end(w: workloads.Workload, passes: list, setup_s: float) -> tuple[dict, list[str]]:
    reps = len(passes)

    def runs(attr: str) -> list[float]:
        # every program run of the timed passes, counted at its program's median time
        return [t for t in median_times(passes, attr) for _ in range(reps)]

    verdicts = runs("verdict_ms")
    tail_p = stats.tail_percentile(len(w.programs) * w.min_passes)
    wall_s = sum(median_times(passes, "verdict_ms")) / 1e3
    refs = [r for p in passes for r in p.ref_ms]
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "verdict_ms.p50": stats.percentile(verdicts, 50),
        "verdict_ms.tail": stats.percentile(verdicts, tail_p),
        "compile_ms.p50": stats.percentile(runs("compile_ms"), 50),
        "tgt_check_ms.p50": stats.percentile(runs("tgt_check_ms"), 50),
        "run_ms.p50": stats.percentile(runs("run_ms"), 50),
        "checks_per_s": _same(passes, "reports") / wall_s,
        "code_nodes": _same(passes, "code_nodes"),
        "heap_cells": _same(passes, "heap_cells"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(p.attempted for p in passes)
    notes = [
        f"passes {reps}, programs per pass {len(w.programs)}; each program's time is its "
        f"median over the passes, and wall_s is the sum of those median verdict times",
        f"times are CPU times scaled to the nominal machine, on which the programs' reference "
        f"job takes {calibrate.PROGRAMS.nominal_ms:g} ms; here it took {min(refs):.3g} to {max(refs):.3g} ms, "
        f"median {statistics.median(refs):.3g} ms, over {len(refs)} timings",
        f"verdict_ms.tail is p{tail_p:g} of {len(verdicts)} program runs "
        f"({stats.beyond(len(verdicts), tail_p)} beyond it)",
        f"error_frac 0 ratio (0 of {attempted} checks and programs differ from their known answer)",
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END}, notes


def growth(rec: spans.Recorder, layer: str, family: str) -> float:
    durations = rec.root_durations(layer)
    sizes = workloads.STEP_SIZES if layer.startswith("harness.") else workloads.SIZES
    best = [min(durations[f"{family}/{n}"]) for n in sizes]
    return stats.loglog_slope(list(sizes), best)


def per_layer(w: workloads.Workload, workload: str, seconds: float, trace_out: Path):
    t0 = time.perf_counter()
    plain = timed_passes(w, seconds * TRACE_PLAIN_SHARE, 1)
    rec = spans.Recorder()
    patch = spans.install(rec, w.dt.modules, w.dt.errors.FuelExhausted)
    try:
        traced = timed_passes(w, seconds - (time.perf_counter() - t0), 1, rec)
    finally:
        patch.undo()
    k = len(traced)
    self_s, calls = rec.self_times(), rec.calls()
    v: dict[str, float] = {}
    for name in SPAN_NAMES:
        v[f"{name}.ms"] = self_s.get(name, 0.0) * 1e3 / k
        v[f"{name}.calls"] = calls.get(name, 0) / k
    for _, _, name in spans.COUNTERS + spans.METHOD_COUNTERS:
        v[name] = rec.counts.get(name, 0) / k
    v["conversion.calls"] = sum(v[f"{c}.calls"] for c in CONVERSION)
    v["conversion.fuel_outs"] = sum(rec.raised.get(c, 0) for c in CONVERSION) / k
    v["alloc.blowup"] = _same(traced, "code_nodes") / _same(traced, "source_nodes")
    v["harness.pass_ratio"] = sum(p.reports_passed for p in traced) / sum(p.reports for p in traced)
    for layer in GROWTH_LAYERS:
        for fam in workloads.FAMILIES:
            v[f"{layer}.growth.{fam}"] = growth(rec, layer, fam) if workload == "scaling" else 0.0
    traced_pass = sum(p.wall_s for p in traced) / k
    plain_pass = sum(p.wall_s for p in plain) / len(plain)
    outside = traced_pass - rec.root_time() / k
    v["trace.pass_s"], v["trace.plain_pass_s"] = traced_pass, plain_pass
    v["trace.overhead_s"] = traced_pass - plain_pass
    v["trace.outside_ms"] = outside * 1e3
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    rec.write_tsv(trace_out)
    self_total = sum(self_s.values()) / k
    notes = [
        f"passes {len(plain)} untraced, {k} traced; {len(rec)} spans written to {trace_out}",
        f"per traced pass: self times sum to {self_total * 1e3:.1f} ms of the pass's "
        f"{traced_pass * 1e3:.1f} ms; {outside * 1e3:.1f} ms ran outside any span "
        f"(the benchmark's own bookkeeping and checks)",
    ]
    if workload != "scaling":
        notes.append("growth slopes need the scaling ladder; this workload reports them as 0")
    return {name: (v[name], unit) for name, unit in per_layer_names()}, notes, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (ROOT / "src" / "dtalloc" / "__init__.py", ROOT / "corpus"):
        if not need.exists():
            print(f"perfbench: {need.relative_to(ROOT)} is missing; run from a dtalloc checkout",
                  file=sys.stderr)
            return 2

    w, first_setup = timed_setup(args.workload, args.seed)
    setup_times = [first_setup]

    def spread_setups(elapsed: float) -> None:
        # the other set-ups are spread over the timed loop, so that their
        # median does not rest on the machine's state in the first second
        done = 1.0 if args.seconds <= 0 else min(1.0, elapsed / args.seconds)
        while len(setup_times) < 1 + (SETUP_REPEATS - 1) * done:
            setup_times.append(repeat_setup(args.workload, args.seed))

    try:
        if args.trace:
            out = ROOT / ".perfbench_out" / f"spans-{args.workload}.tsv.gz"
            metrics, notes, ran = per_layer(w, args.workload, args.seconds, out)
        else:
            ran = timed_passes(w, args.seconds, w.min_passes, after_pass=spread_setups,
                               ref_jobs=ref_jobs_per_program(w))
            metrics, notes = end_to_end(w, ran, statistics.median(setup_times))
    except WrongVerdict as err:
        print(f"perfbench: wrong verdict on workload {args.workload}:\n{err}", file=sys.stderr)
        return 1
    src_loc = sum(len(f.read_text().splitlines()) for f in (ROOT / "src" / "dtalloc").glob("*.py"))
    notes.append(f"src_loc {src_loc} lines in src/dtalloc/*.py (informational)")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": sum(p.attempted for p in ran),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
