"""Every committed BENCH_<n>.json, the benchmark trajectory that
scripts/bench.py writes, has the schema the script states. The benchmark
itself is not run here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _bench_script():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _bench_script()


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_committed_bench_file_has_the_schema(path):
    assert bench.check_schema(json.loads(path.read_text())) == []


def test_the_schema_rejects_what_is_not_a_bench_file():
    n = bench.PAIRS
    good = {
        "format": bench.FORMAT, "pairs": n, "seconds": 1.0,
        "parent": {"rev": "a", "src_lines": 1, "tier1_tests": 1},
        "change": {"rev": "a", "src_lines": 1, "tier1_tests": 1, "dirty": True,
                   "diff_sha256": "0" * 64},
        "workloads": {"w": {"m": bench.compare([2.0] * n, [1.0] + [2.0] * (n - 1), "ms", "lower")}},
    }
    assert bench.check_schema(good) == []
    assert good["workloads"]["w"]["m"]["wins"] == 1
    assert good["workloads"]["w"]["m"]["ties"] == n - 1
    assert bench.check_schema([]) == ["not an object"]
    bad = json.loads(json.dumps(good))
    bad["pairs"] = n - 1
    bad["workloads"]["w"]["m"]["wins"] = n
    del bad["parent"]["rev"]
    del bad["change"]["diff_sha256"]
    assert bench.check_schema(bad) == [
        f"pairs is not an integer of at least {n}",
        "parent.rev is missing",
        "change is dirty but names no diff_sha256",
        "w.m.wins is not a count of pairs",
    ]
