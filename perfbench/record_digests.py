#!/usr/bin/env python3
"""Record the byte-stability digests in perfbench/digests.json.

    python3 perfbench/record_digests.py

For every corpus program and every scaling family program, the digest
covers the compiled text, the printed source and target types, the
emitted model (corpus only) and the CASE lines of its checks. The
benchmark recomputes them on every pass and counts a mismatch as a wrong
verdict. Re-record only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def main() -> int:
    dt = workloads.Dtalloc(ROOT / "src")
    programs = workloads.corpus_programs(ROOT, workloads.load_answers(), None)
    programs = [p for p in programs if isinstance(p, workloads.SourceProgram)]
    keyed = [(f"corpus/{p.name}", p) for p in programs]
    keyed += [(f"scaling/{p.name}", p) for p in workloads.scaling_programs(None)]
    digests = {}
    for key, prog in keyed:
        out = workloads.PassResult()
        digests[key] = workloads.run_source_program(dt, prog, out)
        if out.wrong:
            print("\n".join(out.wrong), file=sys.stderr)
            return 1
    doc = {
        "_about": "sha256 of each program's compiled text, printed source and target "
        "types, emitted model and CASE lines; written by perfbench/record_digests.py",
        "digests": digests,
    }
    workloads.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
