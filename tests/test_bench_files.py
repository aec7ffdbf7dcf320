"""Every committed BENCH_<n>.json, the benchmark trajectory that
scripts/bench.py writes, has the schema the script states, and the
script names the code it measured. The benchmark itself is not run
here."""

import hashlib
import importlib.util
import json
import subprocess
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


def test_the_change_digest_counts_untracked_files_under_its_paths(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("a = 1\n")
    (tmp_path / ".gitignore").write_text("__pycache__/\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    assert bench.change_digest(tmp_path, ["src"]) is None
    # ignored files and files outside the paths are not the change
    (tmp_path / "src" / "__pycache__").mkdir()
    (tmp_path / "src" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (tmp_path / "notes.txt").write_text("x\n")
    assert bench.change_digest(tmp_path, ["src"]) is None
    # a new module is a change, named by its contents
    (tmp_path / "src" / "b.py").write_text("b = 1\n")
    added = bench.change_digest(tmp_path, ["src"])
    (tmp_path / "src" / "b.py").write_text("b = 2\n")
    edited = bench.change_digest(tmp_path, ["src"])
    assert added is not None and edited is not None and added != edited
    # with no untracked file, the digest is that of git diff alone
    (tmp_path / "src" / "b.py").unlink()
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    diff = subprocess.run(["git", "diff", "HEAD", "--binary", "--", "src"], cwd=tmp_path,
                          check=True, capture_output=True, text=True).stdout
    assert bench.change_digest(tmp_path, ["src"]) == hashlib.sha256(diff.encode()).hexdigest()
