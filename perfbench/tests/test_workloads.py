import copy
import gzip
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import calibrate, run, spans, workloads
from perfbench.tests.conftest import ROOT


@pytest.fixture(scope="module")
def dt():
    return workloads.Dtalloc(ROOT / "src")


def test_known_answers_cover_every_corpus_file():
    answers = workloads.load_answers()
    positive = {p.stem for p in (ROOT / "corpus").glob("*.src")}
    negative = {p.name for p in (ROOT / "corpus" / "negative").iterdir()}
    assert set(answers["corpus"]) == positive
    assert set(answers["negative"]) == negative
    programs = workloads.corpus_programs(ROOT, answers, workloads.load_digests())
    assert len(programs) == len(positive) + len(negative)


def test_a_file_without_an_answer_fails_loudly():
    answers = copy.deepcopy(workloads.load_answers())
    del answers["negative"]["box_top.src"]
    with pytest.raises(KeyError, match="box_top.src"):
        workloads.corpus_programs(ROOT, answers, workloads.load_digests())


def test_every_corpus_and_family_program_has_a_digest():
    digests = workloads.load_digests()
    programs = workloads.corpus_programs(ROOT, workloads.load_answers(), digests)
    programs += workloads.scaling_programs(digests)
    sources = [p for p in programs if isinstance(p, workloads.SourceProgram)]
    assert all(p.digest for p in sources)
    with pytest.raises(KeyError, match="record_digests"):
        workloads.scaling_programs({})


def _corpus_pass(dt, answers, digests=None):
    programs = workloads.corpus_programs(ROOT, answers, digests or workloads.load_digests())
    return workloads.run_pass(dt, programs)


def test_the_corpus_pass_matches_every_known_answer(dt):
    result = _corpus_pass(dt, workloads.load_answers())
    assert result.wrong == []
    assert result.reports == result.reports_passed > 0
    assert len(result.verdict_ms) == 37 + 16


def test_a_wrong_expectation_is_reported_as_a_wrong_verdict(dt):
    answers = copy.deepcopy(workloads.load_answers())
    answers["negative"]["fst_flag0.tgt"] = {"exit": 1, "kind": "NotAPair"}
    answers["negative"]["target_syntax.src"]["exit"] = 1
    result = _corpus_pass(dt, answers)
    wrong = sorted(w.split(":")[0] for w in result.wrong)
    assert wrong == ["fst_flag0.tgt", "target_syntax.src"]


def test_a_changed_output_byte_is_a_wrong_verdict(dt):
    digests = dict(workloads.load_digests())
    digests["corpus/pair_simple"] = "0" * 64
    result = _corpus_pass(dt, workloads.load_answers(), digests)
    assert result.wrong == ["pair_simple: output bytes differ from the recorded digest"]


def test_install_wraps_every_binding_and_undo_restores_them(dt):
    original = dt.target.tgt_infer
    rec = spans.Recorder()
    patch = spans.install(rec, dt.modules, dt.errors.FuelExhausted)
    try:
        assert dt.harness.tgt_infer is dt.target.tgt_infer is not original
        assert dt.modules[""].tgt_infer is dt.target.tgt_infer
        assert dt.syntax.all_names is not dt.conversion.all_names
        rec.begin_program("pair_simple")
        e = dt.sexpr.parse((ROOT / "corpus" / "pair_simple.src").read_text())
        report = dt.harness.check_differential("pair_simple", e)
    finally:
        patch.undo()
    assert report.verdict == "pass"
    assert dt.target.tgt_infer is original and dt.harness.tgt_infer is original
    calls = rec.calls()
    assert calls["harness.check.differential"] == 1
    assert calls["target.tgt_eval"] == calls["source.src_eval"] == 1
    assert rec.counts["heap.alloc.calls"] == 1
    assert rec.counts["heap.with_cell.calls"] == 2
    roots = [i for i in range(len(rec)) if rec.parent[i] < 0]
    assert [rec.names[rec.name_of[i]] for i in roots] == ["sexpr.parse", "harness.check.differential"]


def test_traced_run_reports_every_per_layer_metric_and_accounts_for_time(dt, tmp_path):
    w = workloads.Workload(dt, workloads.corpus_programs(
        ROOT, workloads.load_answers(), workloads.load_digests()), min_passes=1)
    metrics, notes, ran = run.per_layer(w, "corpus", 0, tmp_path / "spans.tsv.gz")
    assert list(metrics) == [name for name, _ in run.per_layer_names()]
    v = {name: value for name, (value, _) in metrics.items()}
    assert v["cli.main.calls"] == 16 and v["harness.pass_ratio"] == 1.0
    assert v["trace.outside_ms"] >= 0
    self_ms = sum(v[f"{name}.ms"] for name in run.SPAN_NAMES)
    assert self_ms + v["trace.outside_ms"] == pytest.approx(v["trace.pass_s"] * 1e3)
    with gzip.open(tmp_path / "spans.tsv.gz", "rt") as fh:
        assert fh.readline() == "name\tstart\tend\tparent\tprogram\n"
        # seconds=0 runs one traced pass, so per-pass calls count every span
        assert sum(1 for _ in fh) == sum(v[f"{name}.calls"] for name in run.SPAN_NAMES)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src/dtalloc/__init__.py is missing" in proc.stderr


def test_a_repeated_setup_leaves_the_passes_modules_in_place(dt):
    workloads.Dtalloc(ROOT / "src")  # the import the passes would use
    before = run._dtalloc_modules()
    assert run.repeat_setup("scaling", 1) > 0
    after = run._dtalloc_modules()
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)


def test_every_timing_of_a_program_is_scaled_by_the_reference_jobs_around_it(monkeypatch):
    dt = workloads.Dtalloc(ROOT / "src")  # an import of its own: an earlier test re-imports
    programs = workloads.corpus_programs(ROOT, workloads.load_answers(), workloads.load_digests())
    programs = [p for p in programs if p.name in ("pair_simple", "box_top.src")]
    assert [p.name for p in programs] == ["pair_simple", "box_top.src"]
    refs = iter([1.0, 3.0, 0.5])  # ms: before, between and after the two programs
    monkeypatch.setattr(workloads.calibrate.PROGRAMS, "ms", lambda jobs: next(refs))
    clock = iter(range(100))  # each reading of the CPU clock is one second after the last
    monkeypatch.setattr(workloads.time, "thread_time", lambda: float(next(clock)))
    result = workloads.run_pass(dt, programs, ref_jobs=1)
    assert result.wrong == [] and result.ref_ms == [1.0, 3.0, 0.5]
    first, second = calibrate.PROGRAMS.scale(1.0, 3.0), calibrate.PROGRAMS.scale(3.0, 0.5)
    # pair_simple: verdict around five stage readings; box_top.src: cli.main only
    assert result.compile_ms == result.tgt_check_ms == result.run_ms == [1e3 * first]
    assert result.verdict_ms == [6e3 * first, 1e3 * second]


@pytest.mark.parametrize("ref", [calibrate.PROGRAMS, calibrate.SETUP])
def test_scale_takes_a_reference_job_to_its_nominal_time(ref):
    nominal = ref.nominal_ms
    assert ref.scale(nominal, nominal) == 1.0
    assert ref.scale(2 * nominal, 2 * nominal) == 0.5
    assert ref.scale(nominal, 3 * nominal) == 0.5
    assert ref.ms(2) > 0  # the job raises if it computes a wrong answer
