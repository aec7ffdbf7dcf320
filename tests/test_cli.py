"""Command-line interface: subcommands and exit codes."""

import json
from pathlib import Path

import pytest

from dtalloc.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

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
    # the printer takes one Python frame per level; with two, compile hit
    # the recursion limit at about 170 levels
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


def test_run_reads_600_lets_nested_in_bound_position(tmp_path, capsys):
    # the reader keeps open lists on a stack of its own; recursing once per
    # level, it ran out of Python frames at about 500 levels
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
