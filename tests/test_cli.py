"""Command-line interface: subcommands and exit codes."""

import contextlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest
from families import tower_closure
from hypothesis import given, settings
from hypothesis import strategies as st

from dtalloc import cli
from dtalloc.cli import main
from dtalloc.conversion import DEFAULT_FUEL

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_PAIR = (
    "(let (y (malloc (x Unit) Unit) (Sigma (x Unit 0) (Unit 0)))"
    " (let (y1 (assign1 y unit) (Sigma (x Unit 1) (Unit 0)))"
    " (let (y2 (assign2 y1 unit) (Sigma (x Unit 1) (Unit 1))) y2)))"
)


@pytest.fixture
def pair_file(tmp_path):
    p = tmp_path / "pair.src"
    p.write_text("(pair unit unit (Sigma (x Unit) Unit))\n")
    return str(p)


def test_check_prints_type(pair_file, capsys):
    assert main(["check", pair_file]) == 0
    assert capsys.readouterr().out.strip() == "(Sigma (x Unit) Unit)"


def test_check_target_lang(tmp_path, capsys):
    p = tmp_path / "m.tgt"
    p.write_text("(malloc (x Unit) Unit)\n")
    assert main(["check", str(p), "--lang", "target"]) == 0
    assert capsys.readouterr().out.strip() == "(Sigma (x Unit 0) (Unit 0))"


def test_compile_stdout_and_file(pair_file, tmp_path, capsys):
    assert main(["compile", pair_file]) == 0
    assert capsys.readouterr().out.strip() == GOLDEN_PAIR
    out = tmp_path / "out.tgt"
    assert main(["compile", pair_file, "-o", str(out)]) == 0
    assert out.read_text().strip() == GOLDEN_PAIR


def test_run_source(pair_file, capsys):
    assert main(["run", pair_file]) == 0
    assert capsys.readouterr().out.strip() == "(pair unit unit (Sigma (x Unit) Unit))"


def test_run_target_with_heap_line(pair_file, tmp_path, capsys):
    out = tmp_path / "out.tgt"
    main(["compile", pair_file, "-o", str(out)])
    capsys.readouterr()
    assert main(["run", str(out), "--lang", "target"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["(loc 0)", "heap: loc=0 flags=(1,1)"]


def test_run_trace_shows_rules(pair_file, tmp_path, capsys):
    out = tmp_path / "out.tgt"
    main(["compile", pair_file, "-o", str(out)])
    capsys.readouterr()
    assert main(["run", str(out), "--lang", "target", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("STEP 0 | init |")
    rules = [l.split(" | ")[1] for l in lines]
    assert rules == ["init", "malloc", "let", "assign1", "let", "assign2", "let"]


def test_preserve_reports(capsys):
    assert main(["preserve", str(CORPUS / "eval_chain.src")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert all(l.startswith("CASE ") for l in out[:-1])
    assert out[-1].startswith("passed=") and "failed=0" in out[-1]


def test_preserve_json(capsys):
    assert main(["preserve", str(CORPUS / "pair_fst.src"), "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [json.loads(l) for l in lines]
    assert all(r["verdict"] == "pass" for r in rows[:-1])
    assert rows[-1]["failed"] == 0


def test_preserve_passes_a_closure_whose_code_type_normalizes_under_a_binder(tmp_path, capsys):
    # the closure arm compiles its normalized code type; with y defined,
    # normalization renamed the env binder y to the argument binder's name
    p = tmp_path / "capture.src"
    p.write_text("(let (y Unit Star) (let (y Unit Star)"
                 " (clo (code ((y Star) (y1 y)) y1) y (Pi (y1 y) y))))\n")
    assert main(["preserve", str(p)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6 and all(l.endswith(" pass") for l in out[:-1])
    assert out[-1] == "passed=5 failed=0 fuel=0"


@pytest.mark.parametrize(
    "path", sorted((CORPUS / "negative").glob("*.src")), ids=lambda p: p.stem
)
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_preserve_rejects_ill_typed_input_as_check_does(path, flags, capsys):
    check_code = main(["check", str(path)])
    check_err = capsys.readouterr().err
    code = main(["preserve", str(path), *flags])
    out = capsys.readouterr()
    assert check_code != 0
    assert (code, out.out, out.err) == (check_code, "", check_err)
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error[")


def test_model_from_source(pair_file, capsys):
    assert main(["model", pair_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "(pair (pair (Just unit) (Just unit)) refl)"


def test_model_target_type(tmp_path, capsys):
    p = tmp_path / "s.tgt"
    p.write_text("(Sigma (x Unit 1) (Unit 0))\n")
    assert main(["model", str(p), "--lang", "target"]) == 0
    assert "; schemas: sigma10" in capsys.readouterr().out


def test_gen_writes_programs(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gen", str(out), "--count", "4", "--seed", "9", "--depth", "3"]) == 0
    files = sorted(out.glob("*.src"))
    assert len(files) == 4
    for f in files:
        assert main(["check", str(f)]) == 0


def test_exit_code_type_error(tmp_path, capsys):
    p = tmp_path / "bad.src"
    p.write_text("(app unit unit)\n")
    assert main(["check", str(p)]) == 1
    assert "error[NotAFunction]" in capsys.readouterr().err


def test_open_code_error_keeps_its_position_under_a_let(capsys):
    # the checker renames the let binder in its body (here to itself)
    # before it meets the code, and the code node keeps its parsed position
    assert main(["check", str(CORPUS / "negative" / "open_code.src")]) == 1
    assert capsys.readouterr().err == "error[OpenCode] 1:20 code mentions outer variables: y\n"


@pytest.mark.parametrize("env_binder", ["z", "x"])
def test_open_code_error_names_the_renamed_outer_variable(env_binder, tmp_path, capsys):
    # the inner let is renamed to n1 in its body; substitution reaches the
    # code body also when the argument binder shadows the env binder
    p = tmp_path / "open.src"
    p.write_text(f"(let (n unit Unit) (let (n unit Unit) (code (({env_binder} Unit) (x Unit)) n)))")
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().err == "error[OpenCode] 1:39 code mentions outer variables: n1\n"


def test_exit_code_parse_error(capsys):
    assert main(["check", str(CORPUS / "negative" / "target_syntax.src")]) == 2
    assert "error[ParseError]" in capsys.readouterr().err


def test_exit_code_flag_error(capsys):
    assert main(["check", str(CORPUS / "negative" / "fst_flag0.tgt"), "--lang", "target"]) == 1
    assert "error[FlagError]" in capsys.readouterr().err


def test_exit_code_stuck(capsys):
    assert main(["run", str(CORPUS / "negative" / "fst_flag0.tgt"), "--lang", "target"]) == 3


def test_exit_code_fuel(capsys):
    assert main(["run", str(CORPUS / "eval_chain.src"), "--fuel", "1"]) == 3
    assert "error[FuelExhausted]" in capsys.readouterr().err


def test_exit_code_usage(capsys):
    assert main(["frobnicate"]) == 4
    assert main([]) == 4
    assert main(["check"]) == 4


@pytest.mark.parametrize("cmd", ["run", "preserve"])
def test_negative_fuel_is_usage_error(cmd, capsys):
    assert main([cmd, str(CORPUS / "eval_chain.src"), "--fuel", "-5"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith("error: argument --fuel: must not be negative, got -5\n")


@pytest.mark.parametrize("option, value", [("--count", "-3"), ("--depth", "-1")])
def test_negative_gen_count_or_depth_is_usage_error(tmp_path, option, value, capsys):
    out_dir = tmp_path / "gen"
    assert main(["gen", str(out_dir), option, value]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: dtalloc gen")
    assert out.err.endswith(f"error: argument {option}: must not be negative, got {value}\n")
    assert not out_dir.exists()


def test_zero_fuel_is_accepted(capsys):
    assert main(["run", str(CORPUS / "atom_unit.src"), "--fuel", "0"]) == 0
    assert capsys.readouterr().out == "unit\n"


TRACED = ["clo_pair_env", "pair_nested", "let_under_pair", "eval_long", "snd_dep_pair"]


@pytest.mark.parametrize("name", TRACED)
def test_run_trace_matches_golden(name, tmp_path, capsys):
    golden = CORPUS.parent / "tests" / "golden"
    src = CORPUS / f"{name}.src"
    assert main(["run", str(src), "--trace"]) == 0
    assert capsys.readouterr().out == (golden / f"trace_{name}.source.txt").read_text()
    tgt = tmp_path / f"{name}.tgt"
    assert main(["compile", str(src), "-o", str(tgt)]) == 0
    assert main(["run", str(tgt), "--lang", "target", "--trace"]) == 0
    assert capsys.readouterr().out == (golden / f"trace_{name}.target.txt").read_text()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["check", "--help"]) == 0


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.src")]) == 4
    assert "error[IO]" in capsys.readouterr().err


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_PAIR = str(CORPUS / "pair_simple.src")
_PARSER_ARGVS = [
    ["--help"],
    ["check", "--help"],
    [],
    ["check"],
    ["run", _PAIR, "--fuel", "-1"],
    ["run", _PAIR, "--fuel", "abc"],
    ["frobnicate", _PAIR],
    ["check", str(CORPUS / "no_such_file.src")],
    ["check", _PAIR],
]


def test_a_reused_parser_answers_as_a_fresh_one(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    helps = {}
    for columns in ("40", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        reused = [_outcome(argv) for argv in _PARSER_ARGVS]
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert cli.build_parser() is not cli.build_parser()
            fresh = [_outcome(argv) for argv in _PARSER_ARGVS]
        assert reused == fresh, columns
        assert [code for code, _, _ in reused] == [0, 0, 4, 4, 4, 4, 4, 4, 0]
        helps[columns] = reused[0][1]
    # argparse sizes its help to COLUMNS on every call, not once per parser
    assert helps["40"] != helps["120"]


@pytest.mark.parametrize(
    "argv", [["check", _PAIR], ["check"], ["--help"]], ids=["check", "no-file", "help"]
)
def test_main_without_argv_reads_sys_argv_on_a_reused_parser(argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["dtalloc", *argv])
    reused = _outcome(None)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert reused == _outcome(None) == _outcome(argv)


def test_a_bug_is_one_internal_error_line(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken\ninvariant")

    monkeypatch.setitem(cli._DISPATCH, "check", broken)
    assert main(["check", _PAIR]) == 5
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error[Internal] check: RuntimeError: broken invariant\n"


def _nested_pairs(n):
    """A pair whose first component is a pair, n deep."""
    term, ty = "unit", "Unit"
    for _ in range(n):
        term = f"(pair {term} unit (Sigma (a {ty}) Unit))"
        ty = f"(Sigma (a {ty}) Unit)"
    return term


def _fst_pair_chain(n):
    """(fst (pair (fst (pair ... unit ...)) unit ...)), n pairs deep."""
    term = "unit"
    for _ in range(n):
        term = f"(fst (pair {term} unit (Sigma (a Unit) Unit)))"
    return term


def test_compile_prints_nested_pairs_200_deep(tmp_path, capsys):
    # the printer keeps the pieces it has still to print on a stack of its
    # own; with two Python frames per level, compile hit the recursion
    # limit at about 170 levels
    p = tmp_path / "deep.src"
    p.write_text(_nested_pairs(200))
    assert main(["compile", str(p)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("(let (y (malloc (a (Sigma (a ")
    assert out.out.count("(malloc ") == 200


@pytest.mark.parametrize("cmd, depth", [("compile", 400), ("check", 3000)])
def test_too_deep_input_is_one_error_line(tmp_path, capsys, cmd, depth):
    p = tmp_path / "deep.src"
    p.write_text(_fst_pair_chain(depth))
    assert main([cmd, str(p)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error[TooDeep] {cmd}: input nests too deeply\n"


def test_compile_takes_a_300_deep_projection_chain(tmp_path, capsys):
    # the printer used to run out of Python frames at about 250 levels
    p = tmp_path / "deep.src"
    p.write_text(_fst_pair_chain(300))
    assert main(["compile", str(p)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.count("(malloc ") == 300


def test_run_takes_a_1000_deep_projection_chain(tmp_path, capsys):
    # the reader used to run out of Python frames at about 600 levels
    p = tmp_path / "deep.src"
    p.write_text(_fst_pair_chain(1000))
    assert main(["run", str(p)]) == 0
    assert capsys.readouterr() == ("unit\n", "")


def test_preserve_of_too_deep_input_is_fuel_not_fail(tmp_path, capsys):
    # check accepts the program; the compiled judgement runs out of Python
    # frames, which says nothing about the compiler: a fuel verdict, exit 3
    p = tmp_path / "deep.src"
    p.write_text(_nested_pairs(200))
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    assert main(["preserve", str(p)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "CASE deep.type type-preservation fuel" in lines
    assert not [line for line in lines if line.startswith("CASE ") and line.endswith(" fail")]
    assert lines[-1].endswith("failed=0 fuel=1")


@pytest.mark.parametrize("cmd", ["check", "compile", "model", "preserve"])
def test_conversion_out_of_fuel_while_typing_is_fuel_not_a_type_error(tmp_path, capsys, cmd):
    # the closure's two types are equal, but comparing them runs past the
    # budget: that says nothing about the program, so no error[SubtypeFail]
    p = tmp_path / "tower.src"
    p.write_text(tower_closure(16))
    assert main([cmd, str(p)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error[FuelExhausted] exceeded {DEFAULT_FUEL} reduction steps\n"


def test_one_level_lower_the_tower_checks(tmp_path, capsys):
    p = tmp_path / "tower.src"
    p.write_text(tower_closure(15))
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr().out.startswith("(Pi (x (Sigma (a (Sigma (a ")


def test_model_takes_a_200_deep_projection_chain(tmp_path, capsys):
    # the model inlines each let's model text; substituting the definitions
    # into the term instead ran out of Python frames at about 110 levels
    p = tmp_path / "deep.src"
    p.write_text(_fst_pair_chain(200))
    assert main(["model", str(p)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines()[-1].startswith("(maybe-fst (pair (pair (Just (maybe-fst ")


def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.src"
    p.write_bytes(b"(pair unit unit (Sigma (x Unit) Unit))\n\xff\xfe")
    assert main(["check", str(p)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error[ParseError] 2:1 input is not valid UTF-8\n"
    p.write_bytes(b"(pair unit unit (Sigma (x Unit) Unit))\xff\xfe")
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error[ParseError] 1:")
    assert "Traceback" not in err


def test_a_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    p = tmp_path / "bom.src"
    text = b"(pair unit unit (Sigma (x Unit) Unit))\n"
    p.write_bytes(text)
    assert main(["check", str(p)]) == 0
    plain = capsys.readouterr()
    p.write_bytes(b"\xef\xbb\xbf" + text)
    assert main(["check", str(p)]) == 0
    assert capsys.readouterr() == plain
    # positions count from the character after the mark, a bad byte's too
    for data, err in ((b"unit)", "1:5 unexpected trailing input"),
                      (b"(pair \xff", "1:7 input is not valid UTF-8"),
                      (b"\n\xff", "2:1 input is not valid UTF-8")):
        p.write_bytes(b"\xef\xbb\xbf" + data)
        assert main(["check", str(p)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error[ParseError] {err}\n")
    # only the first mark is skipped; a second is a character of the program
    p.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfunit")
    assert main(["check", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error[ParseError] 1:1 ")


def test_run_reads_600_lets_nested_in_bound_position(tmp_path, capsys):
    # the reader keeps the forms it has open on a stack of its own; recursing
    # once per level, it ran out of Python frames at about 500 levels
    term = "unit"
    for _ in range(600):
        term = f"(let (x {term} Unit) x)"
    p = tmp_path / "deep.src"
    p.write_text(term)
    assert main(["run", str(p)]) == 0
    assert capsys.readouterr().out == "unit\n"


@pytest.mark.parametrize("name, cmd, code, err", [
    ("assign1_twice", "check", 1, "error[FlagError] 1:1 first slot is already initialized"),
    ("assign1_twice", "run", 3, "error[Stuck] first slot was already written"),
    ("assign2_first", "check", 1, "error[FlagError] 1:1 second assignment needs a filled"
     " first slot and an empty second slot"),
    ("assign2_first", "run", 3, "error[Stuck] second slot needs a filled first slot and an"
     " empty second"),
    ("fst_flag0", "check", 1, "error[FlagError] 1:1 first slot may be uninitialized"),
    ("fst_flag0", "run", 3, "error[Stuck] first slot is uninitialized"),
    ("snd_flag10", "check", 1, "error[FlagError] 1:1 second slot may be uninitialized"),
    ("snd_flag10", "run", 3, "error[Stuck] second slot is uninitialized"),
])
def test_flag_protocol_errors_name_their_slot(name, cmd, code, err, capsys):
    path = CORPUS / "negative" / f"{name}.tgt"
    assert main([cmd, "--lang", "target", str(path)]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", err + "\n")


# Closed target programs that write a tuple through a binder whose type
# still shows the slot empty. A write changes the type of its new binder
# only, so check accepts each of them, and run gets stuck on the write.
ALIASED_WRITES = {
    # a second assign1 through the malloc's binder
    "double_assign1": """
(let (y (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0)))
  (let (y1 (assign1 y unit) (Sigma (a Unit 1) (Unit 0)))
    (let (y2 (assign1 y unit) (Sigma (a Unit 1) (Unit 0))) y2)))
""",
    # the location copied by a let, and written through both binders
    "copied_location": """
(let (y (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0)))
  (let (z y (Sigma (a Unit 0) (Unit 0)))
    (let (y1 (assign1 y unit) (Sigma (a Unit 1) (Unit 0)))
      (let (z1 (assign1 z unit) (Sigma (a Unit 1) (Unit 0))) z1))))
""",
    # a second assign2 through y1 once y2 is full
    "second_assign2": """
(let (y (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0)))
  (let (y1 (assign1 y unit) (Sigma (a Unit 1) (Unit 0)))
    (let (y2 (assign2 y1 unit) (Sigma (a Unit 1) (Unit 1)))
      (let (y3 (assign2 y1 unit) (Sigma (a Unit 1) (Unit 1))) y3))))
""",
}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", list(ALIASED_WRITES))
def test_a_target_program_check_accepts_does_not_get_stuck(name, tmp_path, capsys):
    p = tmp_path / f"{name}.tgt"
    p.write_text(ALIASED_WRITES[name])
    accepted = main(["check", "--lang", "target", str(p)]) == 0
    capsys.readouterr()
    main(["run", "--lang", "target", str(p)])
    stuck = capsys.readouterr().err.startswith("error[Stuck]")
    assert not (accepted and stuck)


# The paper's linking example: a compiled closure that reads the second
# slot of its argument, applied to tuples written by hand in the target.
LINKED_F = ("(clo (code ((n Unit) (p (Sigma (a Unit) Unit))) (snd p)) unit"
            " (Pi (p (Sigma (a Unit) Unit)) Unit))")
LINKED_ARGS = {
    "full": "(let (y (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0)))"
            " (let (y1 (assign1 y unit) (Sigma (a Unit 1) (Unit 0)))"
            " (let (y2 (assign2 y1 unit) (Sigma (a Unit 1) (Unit 1))) y2)))",
    # the second slot is never written
    "half": "(let (y (malloc (a Unit) Unit) (Sigma (a Unit 0) (Unit 0)))"
            " (let (y1 (assign1 y unit) (Sigma (a Unit 1) (Unit 0))) y1))",
}


def _linked(tmp_path, capsys, arg):
    """A target file applying the compiled LINKED_F to LINKED_ARGS[arg]."""
    f = tmp_path / "f.src"
    f.write_text(LINKED_F)
    assert main(["compile", str(f)]) == 0
    p = tmp_path / f"linked_{arg}.tgt"
    p.write_text(f"(app {capsys.readouterr().out.strip()} {LINKED_ARGS[arg]})")
    return str(p)


def test_a_compiled_closure_linked_with_a_full_tuple_checks_and_runs(tmp_path, capsys):
    p = _linked(tmp_path, capsys, "full")
    assert main(["check", "--lang", "target", p]) == 0
    assert capsys.readouterr().out == "Unit\n"
    assert main(["run", "--lang", "target", p]) == 0
    assert capsys.readouterr().out == "unit\nheap: loc=0 flags=(1,1) loc=1 flags=(1,1)\n"


def test_a_compiled_closure_linked_with_a_half_filled_tuple_is_rejected(tmp_path, capsys):
    p = _linked(tmp_path, capsys, "half")
    assert main(["check", "--lang", "target", p]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"error\[SubtypeFail\] [^\n]*\n", out.err), out.err
    # unchecked, the code reads the unwritten slot: an uninitialized pointer
    assert main(["run", "--lang", "target", p]) == 3
    assert capsys.readouterr().err == "error[Stuck] second slot is uninitialized\n"


def test_corpus_outputs_match_golden():
    # stdout, stderr and exit code of every subcommand the script runs on
    # every corpus and negative file, byte for byte
    recorder = runpy.run_path(str(ROOT / "scripts" / "record_cli_golden.py"))
    assert recorder["render"]() == (GOLDEN / "cli_corpus.txt").read_text()


_TOKEN = re.compile(r"[()]|[^\s()]+")
_COMMENT = re.compile(r";[^\n]*")
_FUZZ_FILES = sorted(CORPUS.glob("*.src")) + sorted((CORPUS / "negative").iterdir())
_KEYWORDS = ["(", ")", "unit", "Unit", "Star", "Box", "x", "0", "1", "let", "pair", "fst",
             "snd", "app", "clo", "code", "Code", "Pi", "Sigma", "malloc", "assign1",
             "assign2", "ctag"]
_FUZZ_COMMANDS = (["check"], ["compile"], ["run"], ["run", "--lang", "target"],
                  ["preserve", "--fuel", "50"], ["model"])


@st.composite
def _mutated_program(draw):
    """A corpus file with one to three tokens inserted, deleted or replaced.
    Comments are dropped first: the tokens are joined on one line, where a
    comment would swallow everything after it."""
    text = _COMMENT.sub("", draw(st.sampled_from(_FUZZ_FILES)).read_text())
    tokens = _TOKEN.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("insert", "delete", "replace") if tokens else ("insert",)))
        i = draw(st.integers(0, len(tokens) - (op != "insert")))
        if op == "delete":
            del tokens[i]
        else:
            word = draw(st.sampled_from(_KEYWORDS + tokens))
            tokens[i : i + (op == "replace")] = [word]
    return " ".join(tokens) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=_mutated_program())
def test_mutated_programs_end_in_a_documented_exit(text, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.src"
    path.write_text(text)
    for cmd in _FUZZ_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*cmd, str(path)])
        assert 0 <= code <= 4, (cmd, text)
        if code and not (cmd[0] == "preserve" and code in (1, 3) and not err.getvalue()):
            # preserve's own exits 1 and 3 are property verdicts, printed on stdout
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error["), (cmd, text, lines)
