"""Regenerate golden.json: the exact answers of the golden seed.

    python3 bench/golden.py

Runs every input of the exact workloads' golden-seed pools once, checks
each report with checker.py, and writes the answers.  Float answers are not
pinned.  Exact answers are ground truth, so regenerate only when the input
pools change, never to make a changed answer pass.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run

EXACT_WORKLOADS = ("exact-cover", "ce-sweep")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)
    from simplexcover import cli

    golden = {}
    work = run.WORK_DIR / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in EXACT_WORKLOADS:
            verify = run.Verifier({})
            for op in run.WORKLOADS[name].build(run.GOLDEN_SEED, os.path.relpath(work, run.ROOT)):
                code, text, _, _, error = run.run_op(cli, op)
                verify(op, code, text, error)
            if verify.problems:
                print("\n".join(verify.problems), file=sys.stderr)
                return 1
            golden[name] = verify.seen
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_DIR.rmdir()
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
