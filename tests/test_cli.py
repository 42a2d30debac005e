"""Command line interface: parsing, exit codes, report envelopes.

``test_contract`` runs every row of ``cli_cases.CONTRACT`` through
``cli.main`` and ``test_contract_entry_point`` runs one row per outcome as
``python -m simplexcover.cli``.
"""
import ast
import concurrent.futures
import contextlib
import dataclasses
import functools
import json
import operator
import os
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any, Dict

import pytest

from cli_cases import CONTRACT, CORNERS_CSV, RIGHT_CSV, Row, setup
import simplexcover
from simplexcover import ScalarMode, TheoremViolationError, sample_body
from simplexcover.cli import RunConfig, build_parser, main, parse_argv, run
from simplexcover.mvs import mvs_exact, mvs_local_search
import simplexcover.cli as cli

NS = "{http://www.w3.org/2000/svg}"
SRC = str(Path(simplexcover.__file__).parents[1])


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# argv parsing
# ---------------------------------------------------------------------------

def test_parse_argv_round_trip():
    cfg = parse_argv(
        ["mvs", "--input", "pts.csv", "--mode", "float", "--tol", "1e-8",
         "--seed", "3", "--local"]
    )
    assert cfg == RunConfig(
        command="mvs", input="pts.csv", mode=ScalarMode.FLOAT, tol=1e-8,
        seed=3, local=True,
    )
    assert cfg.check_tol == 1e-8


def test_check_tol_defaults():
    assert parse_argv(["mvs", "--input", "x"]).check_tol == 0
    float_cfg = parse_argv(["mvs", "--input", "x", "--mode", "float"])
    assert float_cfg.check_tol > 0


def test_one_parser_serves_every_parse(monkeypatch):
    built = []

    def counting_build_parser():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._shared_parser.cache_clear()
    try:
        first = parse_argv(["mvs", "--mode", "float", "--local", "--tol", "0.1",
                            "--input", "x"])
        second = parse_argv(["mvs", "--mode", "float", "--input", "x"])
    finally:
        cli._shared_parser.cache_clear()
    assert len(built) == 1
    assert first.local is True and first.tol == 0.1
    # Nothing set by the first parse leaks into the second.
    assert second.local is False and second.tol is None


def test_usage_error_after_a_parse_exits_1(capsys):
    parse_argv(["mvs", "--input", "x"])
    with pytest.raises(SystemExit) as exc:
        parse_argv(["mvs", "--input", "x", "--bogus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: simplexcover")
    assert "error: unrecognized arguments: --bogus" in err


def test_main_help_prints_no_report(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: simplexcover")


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------------------
# the contract: one row per argv, run by cli.main
# ---------------------------------------------------------------------------

def _check(row: Row, code: int, out: str, err: str, cwd: Path) -> Dict[str, Any]:
    """Check one run of ``row`` against the contract; returns its report.

    stdout is one schema-2 JSON report and stderr holds no traceback.  An
    error report has no result: the usage text precedes a usage error on
    stderr, and "simplexcover: <error>" follows any other.  A successful
    report has no violations, and a report written to --output is stdout's.
    """
    rep = json.loads(out)  # text after the one report fails to parse
    assert rep["schema_version"] == 2
    assert "Traceback" not in err
    assert (code, rep.get("error_kind")) == (row.code, row.kind)
    if "error" in rep:
        assert "result" not in rep and "violations" not in rep
        if "command" in rep:
            assert f"simplexcover: {rep['error']}\n" in err
        else:
            assert err.startswith("usage: simplexcover")
            assert f"error: {rep['error']}\n" in err
    else:
        assert rep["violations"] == []
    argv = shlex.split(row.argv)
    if "--output" in argv and argv[0] != "render" and "error" not in rep:
        assert (cwd / argv[argv.index("--output") + 1]).read_text() == out
    if row.error is not None:
        assert rep["error"] == row.error
    if row.prefix is not None:
        assert rep["error"].startswith(row.prefix)
    if row.suffix is not None:
        assert rep["error"].endswith(row.suffix)
    if row.field is not None:
        path, value = row.field
        assert functools.reduce(operator.getitem, path.split("."), rep) == value
    if row.file is not None:
        name, head = row.file
        assert (cwd / name).read_bytes().startswith(head)
    return rep


def _main(name: str, tmp_path: Path, monkeypatch, capsys) -> Dict[str, Any]:
    """Run row ``name`` through ``cli.main`` in a directory of its own."""
    cwd = tmp_path / name
    argv = setup(CONTRACT[name], cwd)
    monkeypatch.chdir(cwd)
    code = main(argv)
    out, err = capsys.readouterr()
    return _check(CONTRACT[name], code, out, err, cwd)


@pytest.mark.parametrize("name", list(CONTRACT))
def test_contract(name, tmp_path, monkeypatch, capsys):
    with pytest.warns(RuntimeWarning) if CONTRACT[name].warns else contextlib.nullcontext():
        rep = _main(name, tmp_path, monkeypatch, capsys)
    twin = CONTRACT[name].same_as
    if twin is not None:
        reports = [rep, _main(twin, tmp_path, monkeypatch, capsys)]
        for r in reports:
            del r["timings"], r["config"]["input"]
        assert reports[0] == reports[1]


# One row per outcome: success, a file input error, a usage error, and a
# report written to --output.
@pytest.mark.parametrize("name", ["counterexample", "latin-john", "epsilon-negative", "output"])
def test_contract_entry_point(name, tmp_path):
    cwd = tmp_path / name
    argv = setup(CONTRACT[name], cwd)
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "simplexcover.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    _check(CONTRACT[name], done.returncode, done.stdout, done.stderr, cwd)


# ---------------------------------------------------------------------------
# run(): envelopes and exit codes
# ---------------------------------------------------------------------------

def test_john_success_envelope():
    code, rep = run(RunConfig(command="john", body="square", n=8, dim=2, seed=1))
    assert code == 0
    assert set(rep) == {
        "schema_version", "command", "config", "result", "violations", "timings",
    }
    assert rep["schema_version"] == 2
    assert rep["command"] == "john"
    assert rep["config"]["mode"] == "exact"
    assert rep["violations"] == []
    cover = rep["result"]["cover"]
    assert cover["bounds_ok"] and cover["centered_containment_ok"]
    assert cover["sandwich"]["ok"]


def test_reports_are_deterministic_apart_from_timings():
    cfg = RunConfig(command="john", body="disk", n=9, dim=2, seed=5)
    _, a = run(cfg)
    _, b = run(cfg)
    del a["timings"], b["timings"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_missing_file_exits_1():
    code, rep = run(RunConfig(command="mvs", input="/definitely/not/here.csv"))
    assert code == 1
    assert rep["error_kind"] == "input-error"
    assert "result" not in rep


def test_main_error_goes_to_stderr(capsys):
    code = main(["mvs", "--input", "/absent.csv"])
    assert code == 1
    captured = capsys.readouterr()
    assert "simplexcover:" in captured.err
    assert json.loads(captured.out)["error_kind"] == "input-error"


def test_violations_exit_2(monkeypatch):
    stub = cli._COMMANDS["john"]._replace(handler=lambda cfg: ({"stub": 1}, ["boom"]))
    monkeypatch.setitem(cli._COMMANDS, "john", stub)
    code, rep = run(RunConfig(command="john"))
    assert code == 2
    assert rep["violations"] == ["boom"]
    assert rep["result"] == {"stub": 1}


def test_theorem_violation_exit_2(monkeypatch):
    def bad(cfg):
        raise TheoremViolationError("bound broke")

    monkeypatch.setitem(cli._COMMANDS, "john", cli._COMMANDS["john"]._replace(handler=bad))
    code, rep = run(RunConfig(command="john"))
    assert code == 2
    assert rep["error_kind"] == "theorem-violation"


JOHN_VIOLATIONS = {
    "sandwich": "maximum simplex fails the swap-local slab check",
    "centered": "points escape the centered (d+2)-dilation",
    "bounds": "a dilation optimum exceeds its guaranteed bound",
}


def break_cover_checks(monkeypatch, broken):
    """Make every cover report that the CLI builds fail the checks in ``broken``."""
    real = cli.john_positive_cover

    def flipped(*args, **kwargs):
        rep = real(*args, **kwargs)
        return dataclasses.replace(
            rep, sandwich=dataclasses.replace(rep.sandwich, ok="sandwich" not in broken),
            centered_containment_ok="centered" not in broken,
            bounds_ok="bounds" not in broken)

    monkeypatch.setattr(cli, "john_positive_cover", flipped)


@pytest.mark.parametrize("broken", [("sandwich",), ("centered",), ("bounds",),
                                    ("sandwich", "centered", "bounds")])
def test_john_violation_report(monkeypatch, broken):
    break_cover_checks(monkeypatch, broken)
    code, rep = run(RunConfig(command="john", body="square", n=8, dim=2))
    assert code == 2
    assert rep["violations"] == [JOHN_VIOLATIONS[k] for k in broken]
    assert "error_kind" not in rep and "error" not in rep


@pytest.mark.parametrize("broken", ["sandwich", "centered", "bounds"])
def test_random_trials_fails_a_trial_on_each_cover_check(monkeypatch, broken):
    # A trial is ok exactly when john would report no violation.
    break_cover_checks(monkeypatch, (broken,))
    code, rep = run(RunConfig(command="random-trials", body="square", n=8, dim=2, trials=2))
    assert code == 2
    assert [r["ok"] for r in rep["result"]["results"]] == [False, False]
    assert rep["result"]["ok_count"] == 0
    assert rep["violations"] == ["covering bounds failed on 2 trial(s): seeds [0, 1]"]


def test_mvs_slab_violation_report(monkeypatch):
    real = cli.verify_local_maximality
    monkeypatch.setattr(cli, "verify_local_maximality",
                        lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), ok=False))
    code, rep = run(RunConfig(command="mvs", body="square", n=8, dim=2))
    assert code == 2
    assert rep["violations"] == [JOHN_VIOLATIONS["sandwich"]]
    assert rep["result"]["local_maximality"]["ok"] is False


COUNTEREXAMPLE_VIOLATIONS = {
    "all_exceed_two": "some triangle covers at dilation 2 or below",
    "mirror_symmetric": "mirror-symmetric triangles disagree",
    "implications_ok": "an analytic chord bound contradicts the LP",
}


@pytest.mark.parametrize("feasible, broken", [
    (True, ("all_exceed_two",)), (True, ("mirror_symmetric",)), (True, ("implications_ok",)),
    (True, tuple(COUNTEREXAMPLE_VIOLATIONS)),
    # An infeasible (epsilon, delta) proves nothing, so it violates nothing.
    (False, tuple(COUNTEREXAMPLE_VIOLATIONS)),
])
def test_counterexample_violation_report(monkeypatch, feasible, broken):
    real = cli.verify_counterexample

    def flipped(ccfg):
        return dataclasses.replace(real(ccfg), feasible=feasible,
                                   **{flag: False for flag in broken})

    monkeypatch.setattr(cli, "verify_counterexample", flipped)
    code, rep = run(RunConfig(command="counterexample"))
    want = [COUNTEREXAMPLE_VIOLATIONS[k] for k in broken] if feasible else []
    assert code == (2 if want else 0)
    assert rep["violations"] == want
    assert "error_kind" not in rep and "error" not in rep


@pytest.mark.parametrize("exc", [TypeError, ValueError])
def test_internal_errors_are_not_input_errors(monkeypatch, exc):
    # A bug deep in the library must surface, not read as bad input.
    def broken(*args, **kwargs):
        raise exc("internal bug")

    monkeypatch.setattr(cli, "john_positive_cover", broken)
    with pytest.raises(exc, match="internal bug"):
        run(RunConfig(command="john", body="square", n=8, dim=2))


@pytest.mark.parametrize(
    "cfg, error",
    [
        (RunConfig(command="john", body="annulus", n=9, dim=3),
         "annulus sampling is only defined for d = 2"),
        (RunConfig(command="john", body="square", n=2, dim=2),
         "need at least d+1 = 3 points, got 2"),
        (RunConfig(command="john", body="regular-simplex", n=5, dim=2),
         "regular-simplex has no exact rational realization in dimension 2"),
        (RunConfig(command="random-trials", body="square", n=5, dim=0),
         "dimension must be at least 1"),
        (RunConfig(command="render", body="square", n=5, dim=3, output="unused.svg"),
         "rendering needs d = 2 input, got d = 3"),
        (RunConfig(command="sweep", epsilons="2", deltas="1/5"),
         "epsilon and delta must lie strictly between 0 and 1"),
        # The parser requires these flags; run() checks them for library callers.
        (RunConfig(command="dilation", body="square", n=5, dim=2),
         "dilation needs --simplex FILE with d+1 vertices"),
        (RunConfig(command="random-trials", n=5, dim=2),
         "random-trials needs --sample, --n and --dim"),
        (RunConfig(command="sweep"), "sweep needs --epsilons and --deltas"),
    ],
    ids=["annulus-d3", "too-few", "inexact-simplex", "dim-0", "render-3d", "sweep-range",
         "dilation-no-simplex", "trials-no-sample", "sweep-no-grids"],
)
def test_bad_input_deep_in_the_library_is_an_input_error(cfg, error):
    code, rep = run(cfg)
    assert code == 1
    assert (rep["error_kind"], rep["error"]) == ("input-error", error)


# ---------------------------------------------------------------------------
# individual commands through run()
# ---------------------------------------------------------------------------

def test_mvs_command(tmp_path):
    path = write(tmp_path, "pts.csv", CORNERS_CSV)
    code, rep = run(RunConfig(command="mvs", input=path))
    assert code == 0
    assert rep["result"]["mvs"]["volume"] == "1/2"
    assert rep["result"]["local_maximality"]["ok"] is True


def test_dilation_command(tmp_path):
    pts = write(tmp_path, "pts.csv", CORNERS_CSV)
    tri = write(tmp_path, "tri.csv", RIGHT_CSV)
    code, rep = run(RunConfig(command="dilation", input=pts, simplex=tri))
    assert code == 0
    res = rep["result"]["dilation"]
    assert res["lam"] == "2"
    assert res["translate"] == ["0", "0"]
    assert res["sign"] == "positive"


def test_dilation_rejects_wrong_simplex_shape(tmp_path):
    pts = write(tmp_path, "pts.csv", CORNERS_CSV)
    tri = write(tmp_path, "tri.csv", "0,0\n1,0\n")
    code, rep = run(RunConfig(command="dilation", input=pts, simplex=tri))
    assert code == 1
    assert "3 points" in rep["error"]


def test_counterexample_command():
    code, rep = run(RunConfig(command="counterexample"))
    assert code == 0
    ce = rep["result"]["counterexample"]
    assert ce["min_lambda"] == "110/53"
    assert ce["verified"] is True
    assert ce["bounds"]["case6_intercept"] == "73/45"


def test_sweep_command(tmp_path):
    out = tmp_path / "table.csv"
    cfg = RunConfig(
        command="sweep", epsilons="1/10,1/5", deltas="1/5", csv=str(out)
    )
    code, rep = run(cfg)
    assert code == 0
    assert len(rep["result"]["rows"]) == 2
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("epsilon,delta,feasible,lambda_CDE")
    assert len(lines) == 3


def test_float_regular_simplex_sample():
    # Interior points are float barycentric combinations of the vertices,
    # so the maximum simplex is the regular simplex itself.
    code, rep = run(parse_argv(["john", "--mode", "float", "--sample", "regular-simplex",
                                "--n", "8", "--dim", "3"]))
    assert code == 0
    cover = rep["result"]["cover"]
    assert cover["mvs"]["simplex"]["vertex_indices"] == [0, 1, 2, 3]
    assert abs(float(cover["positive"]["lam"]) - 1) <= 1e-9
    assert abs(float(cover["negative"]["lam"]) - 3) <= 1e-9


@pytest.mark.parametrize(
    "jobs,trials,cpus,expected",
    [(64, 3, 8, [3]), (64, 5, 2, [2]), (2, 5, None, []), (3, 1, 8, [])],
)
def test_random_trials_clamps_jobs(monkeypatch, jobs, trials, cpus, expected):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, rep = run(RunConfig(command="random-trials", body="square", n=5, dim=2,
                              trials=trials, jobs=jobs))
    assert code == 0 and rep["result"]["ok_count"] == trials
    assert sizes == expected


def test_cli_import_leaves_out_the_process_pool():
    # Only random-trials --jobs runs a process pool, so it imports one
    # itself; every other command's start-up skips both packages.
    code = "import simplexcover.cli; import sys; print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    modules = set(ast.literal_eval(done.stdout))
    assert "simplexcover.cli" in modules
    assert not modules & {"concurrent.futures", "multiprocessing"}


@pytest.mark.parametrize("jobs", [0, -3])
def test_random_trials_rejects_non_positive_jobs(jobs):
    code, rep = run(RunConfig(command="random-trials", body="square", n=5, dim=2, jobs=jobs))
    assert code == 1
    assert rep["error_kind"] == "input-error"
    assert "--jobs" in rep["error"]


def test_random_trials_parallel_matches_serial():
    base = dict(command="random-trials", body="square", n=7, dim=2, trials=3, seed=11)
    _, serial = run(RunConfig(**base, jobs=1))
    _, parallel = run(RunConfig(**base, jobs=2))
    assert serial["result"]["results"] == parallel["result"]["results"]
    assert serial["result"]["ok_count"] == 3
    assert serial["violations"] == []


# ---------------------------------------------------------------------------
# main(): stdout/stderr/files
# ---------------------------------------------------------------------------

def test_main_render_counterexample_scene(tmp_path, capsys):
    svg_path = tmp_path / "scene.svg"
    code = main(
        ["render", "--epsilon", "1/5", "--delta", "1/5", "--output", str(svg_path)]
    )
    assert code == 0
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert len(root.findall(f"{NS}circle")) == 5
    polys = root.findall(f"{NS}polygon")
    assert len(polys) == 2
    labels = [p.find(f"{NS}title").text for p in polys]
    assert labels == ["ADE", "2 ADE"]
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["svg_path"] == str(svg_path)


def test_main_render_john_scene(tmp_path):
    svg_path = tmp_path / "john.svg"
    code = main(
        ["render", "--sample", "disk", "--n", "10", "--dim", "2",
         "--seed", "2", "--mode", "float", "--output", str(svg_path)]
    )
    assert code == 0
    root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
    assert len(root.findall(f"{NS}circle")) == 10
    polys = root.findall(f"{NS}polygon")
    assert [p.find(f"{NS}title").text for p in polys] == ["T", "T'", "T~"]


def test_main_render_local_draws_the_local_search_simplex(tmp_path):
    # On these points local search stops at another triangle than the
    # exact maximum, so T shows which search ran.
    svg_path = tmp_path / "local.svg"
    assert main(["render", "--sample", "square", "--n", "12", "--dim", "2", "--seed", "9",
                 "--local", "--output", str(svg_path)]) == 0
    x = sample_body("square", 12, 2, 9, ScalarMode.EXACT)
    local = mvs_local_search(x, seed=9).simplex
    assert set(local.vertex_indices) != set(mvs_exact(x).simplex.vertex_indices)
    t = ET.fromstring(svg_path.read_text(encoding="utf-8")).findall(f"{NS}polygon")[0]
    assert t.find(f"{NS}title").text == "T"
    drawn = [float(v) for pair in t.get("points").split() for v in pair.split(",")]
    assert drawn == pytest.approx([s * float(v) for p in local.vertices
                                   for s, v in zip((1, -1), p)], rel=1e-5)