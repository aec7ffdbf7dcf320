"""Command-line front end.

Subcommands: check, compile, run, preserve, model, gen. Exit codes:
0 success, 1 type or property failure, 2 parse error, 3 out of fuel,
stuck, or input nested too deeply, 4 usage error, 5 internal error (a
bug in dtalloc, reported as one ``error[Internal]`` line).

The argument parser is built on the first call of ``main`` and reused by
every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .alloc import translate
from .conversion import DEFAULT_FUEL
from .errors import FuelExhausted, StuckError, TypeCheckError
from .harness import (
    check_differential,
    check_preservation,
    check_reduction_preserved,
    check_sort_preservation,
    source_step_pairs,
    summary_line,
    verdict_counts,
)
from .heap import Heap
from .model import Unsupported, emit_model
from .sexpr import Lang, ParseError, parse, print_expr
from .source import src_eval, src_infer, src_trace
from .syntax import Context
from .target import infer, tgt_eval, tgt_trace


def _nonnegative(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dtalloc",
        description="Typecheck, compile, run and audit dependently typed "
        "programs with explicit pair allocation.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, lang=True, fuel=False):
        sp.add_argument("file", help="program file")
        if lang:
            sp.add_argument(
                "--lang", choices=["source", "target"], default="source",
                help="input language (default: source)",
            )
        if fuel:
            sp.add_argument(
                "--fuel", type=_nonnegative, default=DEFAULT_FUEL,
                help="reduction step budget (default: %(default)s)",
            )

    sp = sub.add_parser("check", help="typecheck a file and print its type")
    common(sp)

    sp = sub.add_parser("compile", help="compile a source file to the target")
    common(sp, lang=False)
    sp.add_argument("-o", "--output", help="write the result here instead of stdout")

    sp = sub.add_parser("run", help="evaluate a file on the abstract machine")
    common(sp, fuel=True)
    sp.add_argument("--trace", action="store_true", help="print every machine step")

    sp = sub.add_parser("preserve", help="run the preservation checks on a source file")
    common(sp, lang=False, fuel=True)
    sp.add_argument("--json", action="store_true", help="one JSON object per check")

    sp = sub.add_parser("model", help="emit the relational model of a program")
    common(sp)
    sp.add_argument("-o", "--output", help="write the result here instead of stdout")

    sp = sub.add_parser("gen", help="generate random well-typed source programs")
    sp.add_argument("out", help="output directory")
    sp.add_argument("--count", type=_nonnegative, default=100)
    sp.add_argument("--depth", type=_nonnegative, default=4)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _load(path: str, lang: Lang):
    """Parse a UTF-8 file less a leading byte order mark; the first byte
    that is not UTF-8 is a parse error at its position."""
    # newlines as a text-mode read gives them; the bytes of \r and \n
    # never occur inside a multi-byte character
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lines = data[: err.start].decode("utf-8").split("\n")
        raise ParseError("input is not valid UTF-8", len(lines), len(lines[-1]) + 1) from None
    return parse(text, lang)


def _cmd_check(args) -> int:
    lang = Lang(args.lang)
    e = _load(args.file, lang)
    print(print_expr(infer(lang, Heap(), Context(), e), lang))
    return 0


def _cmd_compile(args) -> int:
    e = _load(args.file, Lang.SOURCE)
    src_infer(Context(), e)
    out = print_expr(translate(Context(), e), Lang.TARGET) + "\n"
    if args.output:
        Path(args.output).write_text(out)
    else:
        print(out, end="")
    return 0


def _cmd_run(args) -> int:
    lang = Lang(args.lang)
    e = _load(args.file, lang)
    if args.trace:
        for line in (src_trace if lang is Lang.SOURCE else tgt_trace)(e, fuel=args.fuel):
            print(line)
    elif lang is Lang.SOURCE:
        print(print_expr(src_eval(e, fuel=args.fuel), lang))
    else:
        final = tgt_eval(e, fuel=args.fuel)
        print(print_expr(final.expr, lang))
        print(f"heap: {final.heap.summary()}")
    return 0


def _cmd_preserve(args) -> int:
    e = _load(args.file, Lang.SOURCE)
    ctx = Context()
    # the checks judge the compiler, which is defined on well-typed input only
    src_infer(ctx, e)
    name = Path(args.file).stem
    reports = [
        check_preservation(f"{name}.type", ctx, e, fuel=args.fuel),
        check_sort_preservation(f"{name}.sort", ctx, e, fuel=args.fuel),
        check_differential(f"{name}.diff", e, fuel=args.fuel),
    ]
    for i, (a, b) in enumerate(source_step_pairs(e, fuel=args.fuel)):
        reports.append(check_reduction_preserved(f"{name}.step{i}", a, b, fuel=args.fuel))
    counts = verdict_counts(reports)
    if args.json:
        for r in reports:
            print(r.to_json())
        print(json.dumps(counts))
    else:
        for r in reports:
            print(r.line())
        print(summary_line(reports))
    if counts["fuel"]:
        return 3
    if counts["failed"]:
        return 1
    return 0


def _cmd_model(args) -> int:
    lang = Lang(args.lang)
    e = _load(args.file, lang)
    infer(lang, Heap(), Context(), e)
    if lang is Lang.SOURCE:
        e = translate(Context(), e)
    out = emit_model(e)
    if args.output:
        Path(args.output).write_text(out)
    else:
        print(out, end="")
    return 0


def _cmd_gen(args) -> int:
    from .harness import GenSpec, gen_typed

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        _, term, _ = gen_typed(GenSpec(depth=args.depth, seed=args.seed + i, closed=True))
        path = outdir / f"gen_{args.seed + i:04d}.src"
        path.write_text(print_expr(term, Lang.SOURCE) + "\n")
        print(path)
    return 0


_DISPATCH = {
    "check": _cmd_check,
    "compile": _cmd_compile,
    "run": _cmd_run,
    "preserve": _cmd_preserve,
    "model": _cmd_model,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 2
        return 0 if code == 0 else 4
    try:
        return _DISPATCH[args.cmd](args)
    except ParseError as err:
        print(err.render(), file=sys.stderr)
        return 2
    except TypeCheckError as err:
        print(err.render(), file=sys.stderr)
        return 1
    except Unsupported as err:
        print(f"error[Unsupported] {err}", file=sys.stderr)
        return 1
    except FuelExhausted as err:
        print(f"error[FuelExhausted] {err}", file=sys.stderr)
        return 3
    except StuckError as err:
        print(f"error[Stuck] {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error[IO] {err}", file=sys.stderr)
        return 4
    except RecursionError:
        print(f"error[TooDeep] {args.cmd}: input nests too deeply", file=sys.stderr)
        return 3
    except Exception as err:
        message = " ".join(str(err).splitlines())
        print(f"error[Internal] {args.cmd}: {type(err).__name__}: {message}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
