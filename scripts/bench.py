#!/usr/bin/env python3
"""Benchmark a change against its parent commit and write BENCH_<n>.json.

    python3 scripts/bench.py --out BENCH_21.json

The change is this checkout's working tree, not yet committed. The
parent is HEAD, checked out with `git worktree add` into a temporary
directory that is removed afterwards; --parent-dir names an existing
checkout of HEAD instead. For every workload of BENCHMARK.json the
script runs `perfbench/run.py --trace 0` for the benchmark's
run_seconds as PAIRS alternating parent/change pairs: pair i runs both
sides with seed i, the parent first when i is even. Each side runs its
own perfbench on its own src/, one run at a time. Ten pairs is the
fewest that can show a gain won on at least nine of ten.

For each end-to-end metric of BENCHMARK.json the file records both
sides' median and quartiles over the pairs, the change in the median in
percent, how many pairs the change won (better in the metric's
direction) and tied, and whether the change's median is better than the
parent's by more than the parent's interquartile range. It also records,
per side, the line count of src/dtalloc/*.py and the number of tier-1
tests collected. When src/ or the benchmark's paths differ from HEAD,
the change also records change_digest of them, so the file names the
code it measured. A run that exits non-zero or reports a
wrong verdict stops the script, and no file is written.

The script only reads perfbench's output; it changes nothing under
perfbench/ and nothing in BENCHMARK.json. check_schema states what a
BENCH file holds, and a tier-1 test applies it to every committed one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMAT = 1
PAIRS = 10
SIDES = ("parent", "change")
STATS = ("q1", "median", "q3")


def _run(cmd: list[str], cwd: Path) -> str:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {cwd} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return done.stdout


def change_digest(tree: Path, paths: list[str]) -> str | None:
    """The SHA-256 of how paths differ from HEAD in tree: of `git diff
    HEAD` over them, then of each untracked file under them, by name and
    contents, which git diff leaves out. None when nothing differs."""
    diff = _run(["git", "diff", "HEAD", "--binary", "--", *paths], tree)
    listed = _run(["git", "ls-files", "--others", "--exclude-standard", "-z", "--", *paths], tree)
    untracked = sorted(name for name in listed.split("\0") if name)
    digest = hashlib.sha256(diff.encode())
    for name in untracked:
        digest.update(b"\0" + name.encode() + b"\0" + (tree / name).read_bytes())
    return digest.hexdigest() if diff or untracked else None


def src_lines(tree: Path) -> int:
    """Lines of src/dtalloc/*.py, as perfbench counts them."""
    return sum(len(f.read_text().splitlines()) for f in (tree / "src" / "dtalloc").glob("*.py"))


def tier1_tests(tree: Path) -> int:
    """The number of tests the tier-1 command collects in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=tree, env=env, capture_output=True, text=True)
    found = re.search(r"(\d+) tests? collected", done.stdout)
    if found is None:
        raise SystemExit(f"bench: no test count in {tree}:\n{done.stdout[-2000:]}")
    return int(found.group(1))


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One end-to-end run of tree's perfbench: its metrics by name."""
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"], tree)
    result = json.loads(out.strip().splitlines()[-1])
    if not result.get("correct") or result.get("failed"):
        raise SystemExit(f"bench: {workload} seed {seed} in {tree} gave a wrong verdict")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method) of one side's runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"q1": med, "median": med, "q3": med}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def compare(parent: list[float], change: list[float], unit: str, better: str) -> dict:
    """One metric's record: both sides' summaries, the change in the
    median in percent (null when the parent's median is 0), the pairs the
    change won and tied, and whether its median is better than the
    parent's by more than the parent's interquartile range."""
    sign = 1 if better == "higher" else -1
    p, c = summary(parent), summary(change)
    gain = sign * (c["median"] - p["median"])
    return {
        "unit": unit,
        "better": better,
        "parent": p,
        "change": c,
        "delta_pct": (c["median"] - p["median"]) / p["median"] * 100 if p["median"] else None,
        "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "beyond_parent_iqr": gain > p["q3"] - p["q1"],
    }


def bench(parent_tree: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    trees = {"parent": parent_tree, "change": ROOT}
    digest = change_digest(ROOT, ["src", *spec["paths"]])
    head = _run(["git", "rev-parse", "HEAD"], ROOT).strip()
    change = {"rev": head, "dirty": digest is not None}
    if digest is not None:
        change["diff_sha256"] = digest
    out = {
        "format": FORMAT,
        "pairs": PAIRS,
        "seconds": seconds,
        "parent": {"rev": head},
        "change": change,
        "workloads": {},
    }
    for side in SIDES:
        out[side]["src_lines"] = src_lines(trees[side])
        out[side]["tier1_tests"] = tier1_tests(trees[side])
    for w in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
        for i in range(PAIRS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(perfbench(trees[side], w, i, seconds))
                print(f"bench: {w} pair {i + 1}/{PAIRS} {side} done", file=sys.stderr)
        out["workloads"][w] = {
            name: compare([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                          unit, better)
            for name, unit, better in metrics
        }
    return out


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_schema(data) -> list[str]:
    """What is wrong with data as the contents of a BENCH file; [] if
    nothing is."""
    problems = []

    def need(ok: bool, what: str) -> bool:
        if not ok:
            problems.append(what)
        return ok

    if not need(isinstance(data, dict), "not an object"):
        return problems
    need(data.get("format") == FORMAT, f"format is not {FORMAT}")
    pairs = data.get("pairs")
    need(isinstance(pairs, int) and not isinstance(pairs, bool) and pairs >= PAIRS,
         f"pairs is not an integer of at least {PAIRS}")
    need(_is_num(data.get("seconds")), "seconds is not a number")
    for side in SIDES:
        s = data.get(side)
        if need(isinstance(s, dict), f"{side} is not an object"):
            need(isinstance(s.get("rev"), str) and bool(s.get("rev")), f"{side}.rev is missing")
            for key in ("src_lines", "tier1_tests"):
                need(isinstance(s.get(key), int), f"{side}.{key} is not an integer")
    change = data.get("change")
    if isinstance(change, dict) and change.get("dirty"):
        need(isinstance(change.get("diff_sha256"), str),
             "change is dirty but names no diff_sha256")
    ws = data.get("workloads")
    if not need(isinstance(ws, dict) and bool(ws), "workloads is empty or not an object"):
        return problems
    for w, ms in ws.items():
        if not need(isinstance(ms, dict) and bool(ms), f"{w} has no metrics"):
            continue
        for name, m in ms.items():
            at = f"{w}.{name}"
            if not need(isinstance(m, dict), f"{at} is not an object"):
                continue
            need(isinstance(m.get("unit"), str), f"{at}.unit is not a string")
            need(m.get("better") in ("lower", "higher"), f"{at}.better is not lower or higher")
            for side in SIDES:
                st = m.get(side)
                need(isinstance(st, dict) and all(_is_num(st.get(k)) for k in STATS),
                     f"{at}.{side} lacks q1, median or q3")
            need(m.get("delta_pct") is None or _is_num(m.get("delta_pct")),
                 f"{at}.delta_pct is not a number or null")
            need(isinstance(m.get("beyond_parent_iqr"), bool),
                 f"{at}.beyond_parent_iqr is not a boolean")
            for key in ("wins", "ties"):
                v = m.get(key)
                need(isinstance(v, int) and isinstance(pairs, int) and 0 <= v <= pairs,
                     f"{at}.{key} is not a count of pairs")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="the file to write, BENCH_<n>.json")
    ap.add_argument("--parent-dir", help="an existing checkout of HEAD to use instead")
    args = ap.parse_args(argv)
    if args.parent_dir:
        data = bench(Path(args.parent_dir).resolve())
    else:
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
            tree = Path(tmp) / "parent"
            _run(["git", "worktree", "add", "--detach", str(tree), "HEAD"], ROOT)
            try:
                data = bench(tree)
            finally:
                _run(["git", "worktree", "remove", "--force", str(tree)], ROOT)
    problems = check_schema(data)
    if problems:
        raise SystemExit("bench: the result fails its own schema: " + "; ".join(problems))
    Path(args.out).write_text(json.dumps(data, indent=1) + "\n")
    for w, ms in data["workloads"].items():
        for name, m in ms.items():
            d = m["delta_pct"]
            print(f"{w} {name} {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"{'' if d is None else f'{d:+.1f}%'} wins {m['wins']}/{data['pairs']}"
                  f"{' beyond parent IQR' if m['beyond_parent_iqr'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
