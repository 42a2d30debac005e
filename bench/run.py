"""simplexcover benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload exact-cover --seed 0 --seconds 35 --trace 0

Each operation is one in-process ``simplexcover.cli.main(argv)`` call with
stdout captured, the same path a shell command takes.  Every report is
checked by ``checker.py`` outside the timed span; on the golden seed the
exact answers must also equal ``golden.json``.  The run cycles through the
workload's input pool until ``--seconds`` have elapsed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every input of a
pass twice, once plain and once with spans recorded, alternating which goes
first, and prints per-layer calls, busy and self time per pass together with
the tracing overhead.  See README.md for the metrics and why each workload
exists.  The last line of stdout is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from spans import COUNT_NAMES, NAMES, Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

GOLDEN_SEED = 0
GOLDEN_PATH = HERE / "golden.json"
WORK_DIR = HERE / "_work"
OUT_DIR = HERE / "out"
SETUP_RUNS = 9  # fresh-interpreter imports per run; setup_s is their median
MIN_OPS = 100  # so that p90 has at least 10 samples beyond it
ESCALATION = "escalating to exact MVS"


def host_probe(reps: int = 5) -> float:
    """Median time of a fixed pure-Python Fraction loop; diagnosis only."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 2000):
            total += Fraction(1, k)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_seconds() -> float:
    """Wall time of one fresh ``python -c "import simplexcover.cli"``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import simplexcover.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_op(cli: Any, op: Op) -> Tuple[Optional[int], str, float, int, str]:
    """Run one operation: (exit code, stdout, seconds, escalations, error)."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    error = ""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    escalations = sum(ESCALATION in str(w.message) for w in caught)
    return code, out.getvalue(), elapsed, escalations, error or err.getvalue().strip()


class Verifier:
    """Checks each report; pins answers to the golden file and to repeats."""

    def __init__(self, golden: Dict[str, Any]):
        self.golden = golden
        self.seen: Dict[str, Any] = {}
        self.problems: List[str] = []
        self.attempted = self.failed = 0

    def __call__(self, op: Op, code: Optional[int], text: str, error: str) -> bool:
        self.attempted += 1
        if code is None:
            return self._fail(op, [error])
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return self._fail(op, [f"stdout is not JSON: {exc}; {error}"])
        try:
            if op.points is not None:
                problems, answer = checker.check_john(op.points, op.exact, code, report)
            else:
                problems, answer = checker.check_counterexample(op.epsilon, op.delta, code, report)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return self._fail(op, [f"malformed report: {exc!r}"])
        if answer is not None:
            if self.golden and answer != self.golden.get(op.key):
                problems.append(f"answer differs from golden: {answer}")
            if self.seen.setdefault(op.key, answer) != answer:
                problems.append("answer differs from an earlier run of the same input")
        return self._fail(op, problems) if problems else True

    def _fail(self, op: Op, problems: List[str]) -> bool:
        self.failed += 1
        self.problems += [f"{op.key}: {p}" for p in problems]
        return False


def end_to_end(cli: Any, pool: List[Op], round_len: int, verify: Verifier, seconds: float):
    import_seconds()  # writes the bytecode caches an installed package would have
    setup: List[float] = []
    latencies: List[float] = []
    passed = 0
    kinds: Dict[str, List[float]] = {}
    start = time.perf_counter()
    # Stop on a round boundary so that every kind is timed equally often.
    while len(latencies) % round_len or (
        time.perf_counter() - start < seconds or len(latencies) < MIN_OPS
    ):
        # The imports are spread evenly over the window, so setup_s sees
        # the same host as the operations do.
        if time.perf_counter() - start >= len(setup) * seconds / SETUP_RUNS:
            setup.append(import_seconds())
        op = pool[len(latencies) % len(pool)]
        code, text, elapsed, _, error = run_op(cli, op)
        latencies.append(elapsed)
        kinds.setdefault(op.kind, []).append(elapsed)
        passed += verify(op, code, text, error)
    while len(setup) < SETUP_RUNS:
        setup.append(import_seconds())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "instances_per_s": (passed / sum(latencies), "1/s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {
        "ops": len(latencies),
        "wall_s": time.perf_counter() - start,
        "latency_p50_s": statistics.median(latencies),
        "p50_s_by_kind": {k: statistics.median(v) for k, v in sorted(kinds.items())},
    }
    return metrics, info


def traced(cli: Any, pool: List[Op], verify: Verifier, seconds: float, spans_path: Path):
    tracer = Tracer()
    plain_s = traced_s = 0.0
    report_bytes = escalations = passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for k, op in enumerate(pool):
            index = passes * len(pool) + k
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                block = tracer.active(index) if with_trace else contextlib.nullcontext()
                with block:
                    code, text, elapsed, esc, error = run_op(cli, op)
                verify(op, code, text, error)
                if with_trace:
                    traced_s += elapsed
                    report_bytes += len(text.encode())
                    escalations += esc
                else:
                    plain_s += elapsed
        passes += 1
    calls, busy, own = aggregate(tracer.spans, len(NAMES))
    metrics: Dict[str, Tuple[float, str]] = {}
    for fid, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = (calls[fid] / passes, "count")
        metrics[f"{name}.busy_s"] = (busy[fid] / passes, "s")
        metrics[f"{name}.self_s"] = (own[fid] / passes, "s")
    for name in COUNT_NAMES:
        metrics[name] = (tracer.counts[name] / passes, "count")
    exact_busy = busy[NAMES.index("mvs.mvs_exact")]
    subsets = tracer.counts["mvs.subsets"]
    metrics["mvs.subsets_per_s"] = (subsets / exact_busy if exact_busy else 0.0, "1/s")
    metrics["covering.escalations"] = (escalations / passes, "count")
    metrics["serialization.report_bytes"] = (report_bytes / passes, "bytes")
    metrics["trace.untraced_s"] = (plain_s / passes, "s")
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / passes, "s")
    tracer.write(str(spans_path))
    info = {
        "ops_per_pass": len(pool),
        "passes": passes,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "simplexcover" / "cli.py").is_file():
        print(f"simplexcover sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    probe_before = host_probe()
    from simplexcover import cli

    workload = WORKLOADS[args.workload]
    golden: Dict[str, Any] = {}
    if args.seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN_PATH.read_text()).get(args.workload, {})
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid():07d}"
    OUT_DIR.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    verify = Verifier(golden)
    try:
        # Relative paths keep the reports the same size wherever the checkout is.
        pool = workload.build(args.seed, os.path.relpath(work, ROOT))
        for op in pool[: workload.round_len]:  # warm-up: checked, not timed
            code, text, _, _, error = run_op(cli, op)
            verify(op, code, text, error)
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}.csv.gz"
            metrics, info = traced(cli, pool, verify, args.seconds, spans_path)
        else:
            metrics, info = end_to_end(cli, pool, workload.round_len, verify, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    probe_after = host_probe()

    attempted, failed = verify.attempted, verify.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "golden_checked": bool(golden),
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "failed_frac": failed / attempted,
        "info": info,
        "problems": verify.problems[:20],
        **result,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    for p in verify.problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k:48s} {v:14.6g} {u}")
    if "latency_p50_s" in info:
        print(f"{'latency_p50_s (not bounded)':48s} {info['latency_p50_s']:14.6g} s")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    print(f"host probe before/after: {probe_before:.6f} s / {probe_after:.6f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
