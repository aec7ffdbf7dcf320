#!/usr/bin/env python3
"""Record what the dtalloc command prints for every corpus file.

Runs cli.main in-process on every corpus/*.src and corpus/negative/* file
under check, check --lang target, compile, run, run --lang target,
preserve and model, and writes each call's stdout, stderr and exit code
to cli_corpus.txt in the given directory (default tests/golden). Files
are named relative to the repository root, so the text does not depend
on where the checkout is.
"""

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dtalloc.cli import main as cli_main  # noqa: E402

COMMANDS = (
    ["check"],
    ["check", "--lang", "target"],
    ["compile"],
    ["run"],
    ["run", "--lang", "target"],
    ["preserve"],
    ["model"],
)


def corpus_files() -> list[str]:
    """Every corpus program and negative file, relative to the root."""
    corpus = ROOT / "corpus"
    paths = sorted(corpus.glob("*.src")) + sorted((corpus / "negative").iterdir())
    return [p.relative_to(ROOT).as_posix() for p in paths]


def run_cli(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


def render() -> str:
    """The golden text: one block per file and command, run from the root."""
    parts = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for path in corpus_files():
            for cmd in COMMANDS:
                out, err, code = run_cli([*cmd, path])
                parts.append(
                    f"== {' '.join([*cmd, path])}\n-- stdout\n{out}-- stderr\n{err}-- exit {code}\n"
                )
    finally:
        os.chdir(cwd)
    return "".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", nargs="?", default=str(ROOT / "tests" / "golden"))
    args = ap.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "cli_corpus.txt"
    path.write_text(render())
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
