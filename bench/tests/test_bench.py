"""Self-tests of the benchmark: inputs, checker and span arithmetic.

    python3 -m pytest bench/tests -q
"""
import copy
import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb

import pytest

import checker
from spans import NAMES, Tracer, aggregate
from workloads import WORKLOADS

from simplexcover import cli, mvs


def _inputs(name, seed, workdir):
    ops = WORKLOADS[name].build(seed, str(workdir))
    files = {}
    for op in ops:
        if "--input" in op.argv:
            path = op.argv[op.argv.index("--input") + 1]
            with open(path, "rb") as fh:
                files[op.key] = fh.read()
    argvs = [[a for a in op.argv if not a.startswith(str(workdir))] for op in ops]
    return argvs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_input_bytes(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first != _inputs(name, 8, tmp_path / "c")


def _report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def john_case(tmp_path_factory):
    work = tmp_path_factory.mktemp("john")
    op = next(o for o in WORKLOADS["exact-cover"].build(3, str(work)) if o.kind == "grid-d3")
    code, report = _report(op.argv)
    return op, code, report


def test_checker_accepts_the_program_report(john_case):
    op, code, report = john_case
    problems, answer = checker.check_john(op.points, op.exact, code, report)
    assert problems == []
    assert answer["vertex_indices"] == report["result"]["cover"]["mvs"]["simplex"]["vertex_indices"]


def test_checker_rejects_lowered_lambda(john_case):
    op, code, report = john_case
    bad = copy.deepcopy(report)
    pos = bad["result"]["cover"]["positive"]
    pos["lam"] = str(Fraction(pos["lam"]) - Fraction(1, 1000))
    problems, _ = checker.check_john(op.points, op.exact, code, bad)
    assert any("positive lambda" in p for p in problems)
    assert any("escapes the positive body" in p for p in problems)


def test_checker_rejects_swapped_vertex_index(john_case):
    op, code, report = john_case
    bad = copy.deepcopy(report)
    simplex = bad["result"]["cover"]["mvs"]["simplex"]
    unused = next(i for i in range(len(op.points)) if i not in simplex["vertex_indices"])
    simplex["vertex_indices"][0] = unused
    problems, _ = checker.check_john(op.points, op.exact, code, bad)
    assert problems


def test_checker_float_tolerance(tmp_path):
    op = WORKLOADS["float-local"].build(1, str(tmp_path))[0]
    code, report = _report(op.argv)
    assert checker.check_john(op.points, op.exact, code, report)[0] == []
    neg = report["result"]["cover"]["negative"]
    neg["lam"] = repr(float(neg["lam"]) * (1 - 1e-6))
    assert checker.check_john(op.points, op.exact, code, report)[0]


def test_checker_counterexample(tmp_path):
    ops = WORKLOADS["ce-sweep"].build(5, str(tmp_path))
    feasible = next(o for o in ops if o.kind != "infeasible")
    infeasible = next(o for o in ops if o.kind == "infeasible")
    for op in (feasible, infeasible):
        code, report = _report(op.argv)
        assert checker.check_counterexample(op.epsilon, op.delta, code, report)[0] == []
    code, report = _report(feasible.argv)
    tri = report["result"]["counterexample"]["triangles"][0]
    tri["lambda_star"] = str(Fraction(tri["lambda_star"]) - Fraction(1, 1000))
    assert checker.check_counterexample(feasible.epsilon, feasible.delta, code, report)[0]
    code, report = _report(feasible.argv)
    report["result"]["counterexample"]["verified"] = False
    assert checker.check_counterexample(feasible.epsilon, feasible.delta, code, report)[0]


def test_self_time_of_nested_spans():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root, children cover 3 + 4
        (1, 1.0, 4.0, 0, 0),
        (2, 5.0, 9.0, 0, 0),  # one child of 2
        (1, 6.0, 8.0, 2, 0),
        (0, 20.0, 21.0, -1, 1),  # a second operation
    ]
    calls, busy, own = aggregate(spans, 3)
    assert calls == [2, 2, 1]
    assert busy == [11.0, 5.0, 4.0]
    assert own == [4.0, 5.0, 2.0]


def test_tracer_spans_counts_and_restore(tmp_path):
    op = next(o for o in WORKLOADS["exact-cover"].build(0, str(tmp_path)) if o.kind == "grid-d2")
    original = mvs.mvs_exact
    tracer = Tracer()
    with tracer.active(5), redirect_stdout(io.StringIO()):
        assert cli.main(op.argv) == 0
    assert mvs.mvs_exact is original
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [NAMES[s[0]] for s in roots] == ["cli.main"]
    assert all(s[4] == 5 for s in tracer.spans)
    assert tracer.counts["mvs.subsets"] == comb(len(op.points), 3)
    calls, busy, own = aggregate(tracer.spans, len(NAMES))
    assert calls[NAMES.index("serialization.to_jsonable")] == 2  # recursion folded
    assert abs(sum(own) - busy[NAMES.index("cli.main")]) < 1e-9


def test_verifier_pins_golden_and_repeats(tmp_path):
    import run

    op = WORKLOADS["ce-sweep"].build(0, str(tmp_path))[0]
    code, text, _, _, error = run.run_op(cli, op)
    golden = json.loads(run.GOLDEN_PATH.read_text())["ce-sweep"]
    assert run.Verifier(golden)(op, code, text, error)
    changed = copy.deepcopy(golden)
    changed[op.key]["min_lambda"] = "2"
    verify = run.Verifier(changed)
    assert not verify(op, code, text, error)
    assert verify.failed == 1 and "golden" in verify.problems[0]
