"""Command line interface: parsing, exit codes, report envelopes."""
import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from helpers import FLOAT_LINE, ROUNDING_CSV, revisiting_float_inputs
import simplexcover
from simplexcover import ScalarMode, TheoremViolationError, sample_body
from simplexcover.cli import RunConfig, build_parser, main, parse_argv, run
from simplexcover.mvs import mvs_exact, mvs_local_search
from simplexcover.serialization import dumps_report
import simplexcover.cli as cli

NS = "{http://www.w3.org/2000/svg}"

CORNERS_CSV = "0,0\n1,0\n1,1\n0,1\n"
RIGHT_CSV = "0,0\n1,0\n0,1\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["mvs", "--input", "x", "--tol", "1e-9"],  # tol is float-mode only
        # only mvs reads --tol
        ["john", "--sample", "disk", "--n", "40", "--dim", "2", "--mode", "float",
         "--tol", "1e-6"],
        ["counterexample", "--mode", "float"],
        ["sweep", "--mode", "float", "--epsilons", "1/5", "--deltas", "1/5"],
        ["mvs", "--input", "x", "--sample", "square"],
        ["dilation", "--input", "x"],  # missing --simplex
        ["john", "--sample", "torus", "--n", "5", "--dim", "2"],
        ["nonsense"],
        # --tol must be finite and >= 0
        ["mvs", "--input", "x", "--mode", "float", "--tol", "-1"],
        ["mvs", "--input", "x", "--mode", "float", "--tol", "nan"],
        ["mvs", "--input", "x", "--mode", "float", "--tol", "inf"],
        # --enum-cap must be >= 0
        ["john", "--sample", "square", "--n", "12", "--dim", "2", "--enum-cap", "-1"],
        ["random-trials", "--sample", "square", "--n", "12", "--dim", "2",
         "--enum-cap", "-1"],
        ["render", "--sample", "square", "--n", "12", "--dim", "2",
         "--output", "x.svg", "--enum-cap", "-1"],
        ["mvs", "--sample", "square", "--n", "12", "--dim", "2", "--enum-cap", "-1"],
    ],
)
def test_bad_argv_exits_1(argv):
    with pytest.raises(SystemExit) as exc:
        parse_argv(argv)
    assert exc.value.code == 1


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


# The flags that render's five-point scene would ignore, with a value each.
SCENE_IGNORES = [
    ["--input", "x.csv"], ["--format", "csv"], ["--sample", "square"], ["--n", "12"],
    ["--dim", "2"], ["--seed", "3"], ["--local"], ["--mode", "float"], ["--enum-cap", "10"],
]


@pytest.mark.parametrize(
    "argv, error",
    [
        # argparse reads "-1/3" as an option, not as the value of --epsilon.
        (["counterexample", "--epsilon", "-1/3"], "argument --epsilon: expected one argument"),
        (["dilation", "--input", "p.csv", "--simplex", "t.csv", "--sign", "neg"],
         "argument --sign: invalid choice: 'neg'"),
        # Only the commands that read --mode or --seed accept them.
        (["counterexample", "--mode", "exact"], "unrecognized arguments: --mode exact"),
        (["sweep", "--seed", "1", "--epsilons", "1/5", "--deltas", "1/5"],
         "unrecognized arguments: --seed 1"),
        (["dilation", "--input", "p.csv", "--simplex", "t.csv", "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        # render's five-point scene reads no points.  The --output directory
        # does not exist, so a scene that is drawn fails with another error.
        *[(["render", scene, "1/5", *flag, "--output", "no-such-dir/x.svg"],
           f"the five-point scene of --epsilon/--delta takes no {flag[0]}")
          for scene in ("--epsilon", "--delta") for flag in SCENE_IGNORES],
        (["render", "--epsilon", "1/5", "--sample", "square", "--n", "12", "--dim", "2",
          "--seed", "3", "--mode", "float", "--output", "no-such-dir/x.svg"],
         "the five-point scene of --epsilon/--delta takes no --sample, --n, --dim, --seed, "
         "--mode"),
    ],
)
def test_main_usage_error_prints_an_input_error_report(capsys, argv, error):
    assert main(argv) == 1
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["schema_version"] == 2 and rep["error_kind"] == "input-error"
    assert rep["error"].startswith(error)
    assert captured.err.startswith("usage: simplexcover")
    assert f"error: {rep['error']}" in captured.err


def test_main_epsilon_with_equals_reaches_the_range_check(capsys):
    assert main(["counterexample", "--epsilon=-1/3"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"].endswith("epsilon and delta must lie strictly between 0 and 1")


def test_main_help_prints_no_report(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: simplexcover")


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


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


def test_ragged_csv_exits_1(tmp_path):
    path = write(tmp_path, "bad.csv", "1,2\n3\n")
    code, rep = run(RunConfig(command="mvs", input=path))
    assert code == 1
    assert "line 2" in rep["error"]


def test_sample_needs_n_and_dim():
    code, rep = run(RunConfig(command="mvs", body="square"))
    assert code == 1
    assert "--n" in rep["error"]


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
    ],
    ids=["annulus-d3", "too-few", "inexact-simplex", "dim-0", "render-3d", "sweep-range",
         "dilation-no-simplex", "trials-no-sample"],
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


def test_counterexample_bad_epsilon():
    code, rep = run(RunConfig(command="counterexample", epsilon="7/0"))
    assert code == 1


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


def test_sweep_needs_grids():
    code, rep = run(RunConfig(command="sweep"))
    assert code == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (["john"], "no input: pass --input FILE or --sample BODY"),
        (["random-trials", "--sample", "square", "--n", "5", "--dim", "2", "--trials", "0"],
         "--trials must be positive"),
        (["sweep", "--epsilons", ",", "--deltas", "1/5"], "--epsilons: empty list"),
        (["sweep", "--epsilons", "1/0", "--deltas", "1/5"], "--epsilons: Fraction(1, 0)"),
        # Only a flag left out falls back to 1/5.
        (["counterexample", "--epsilon", "", "--delta", ""],
         "bad epsilon/delta: Invalid literal for Fraction: ''"),
        (["counterexample", "--delta", ""], "bad epsilon/delta: Invalid literal for Fraction: ''"),
        (["render", "--delta", "", "--output", "no-such-dir/x.svg"],
         "bad epsilon/delta: Invalid literal for Fraction: ''"),
    ],
    ids=["john-no-input", "zero-trials", "empty-epsilons", "zero-denominator",
         "empty-epsilon-delta", "empty-delta", "render-empty-delta"],
)
def test_cli_input_errors(argv, error):
    code, rep = run(parse_argv(argv))
    assert code == 1
    assert (rep["error_kind"], rep["error"]) == ("input-error", error)


def test_oversized_quoted_csv_field_is_an_input_error(tmp_path, capsys):
    # csv.reader stops on a field past its 131,072-character limit.
    path = write(tmp_path, "wide.csv", '"' + "1" * 200_000 + '",2\n')
    assert main(["john", "--mode", "float", "--input", path]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"] == "line 1: field larger than field limit (131072)"


def test_float_fraction_past_the_float_range_is_an_input_error(tmp_path):
    # A p/q text goes through Fraction, whose float() overflows to inf here.
    path = write(tmp_path, "big.csv", "1" + "0" * 400 + "/3,0\n0,1\n1,0\n")
    code, rep = run(RunConfig(command="john", input=path, mode=ScalarMode.FLOAT))
    assert code == 1
    assert (rep["error_kind"], rep["error"]) == (
        "input-error", "point 0 has a non-finite coordinate: (inf, 0.0)")


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


def test_non_finite_input_is_an_input_error(tmp_path):
    # 1e400 parses to inf in float mode; it must not reach the float kernel.
    for name, text in (("inf.csv", "0,0\n1,0\n0,1\n1e400,1\n"),
                       ("inf.json", '{"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1e400, 1]]}')):
        code, rep = run(RunConfig(command="john", input=write(tmp_path, name, text),
                                  mode=ScalarMode.FLOAT))
        assert code == 1
        assert rep["error_kind"] == "input-error"
        assert "non-finite" in rep["error"]


@pytest.mark.parametrize(
    "text",
    ['{"dim": 1, "points": [[' + "7" * 5000 + "]]}", "[" * 200_000 + "]" * 200_000],
    ids=["5000-digit-integer", "nested-200000-deep"],
)
def test_json_past_the_parser_limits_is_an_input_error(tmp_path, capsys, text):
    # json.loads raises a plain ValueError past the integer digit limit and
    # RecursionError past its nesting depth; neither may end in a traceback.
    code = main(["john", "--input", write(tmp_path, "big.json", text)])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"].startswith("invalid JSON")


@pytest.mark.parametrize("flag", ["--input", "--simplex"])
def test_non_utf8_point_file_is_an_input_error(tmp_path, capsys, flag):
    # A Latin-1 byte is not UTF-8: one input-error report, not a traceback.
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"0,0\n1,\xe9\n0,1\n")
    files = {"--input": write(tmp_path, "pts.csv", CORNERS_CSV),
             "--simplex": write(tmp_path, "tri.csv", RIGHT_CSV), flag: str(latin)}
    assert main(["dilation", "--input", files["--input"], "--simplex", files["--simplex"]]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"].startswith(f"cannot read {latin}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize(
    "name,text",
    [("pts.csv", CORNERS_CSV + "1/2,1/3\n"),
     ("pts.json", '{"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1], ["1/2", "1/3"]]}')],
)
def test_byte_order_mark_gives_the_plain_files_report(tmp_path, capsys, name, text):
    reports = []
    for sub, prefix in (("plain", ""), ("bom", "\ufeff")):
        (tmp_path / sub).mkdir()
        assert main(["john", "--input", write(tmp_path / sub, name, prefix + text)]) == 0
        rep = json.loads(capsys.readouterr().out)
        rep.pop("timings")
        rep["config"].pop("input")
        reports.append(rep)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", sorted(revisiting_float_inputs()))
def test_float_search_that_revisits_a_simplex_is_an_input_error(tmp_path, name):
    x = revisiting_float_inputs()[name]
    text = "".join(",".join(repr(v) for v in p) + "\n" for p in x.points)
    code, rep = run(RunConfig(command="mvs", input=write(tmp_path, "p.csv", text),
                              mode=ScalarMode.FLOAT, local=True))
    assert code == 1
    rep = json.loads(dumps_report(rep))
    assert rep["schema_version"] == 2
    assert rep["error_kind"] == "input-error"
    assert "rerun in exact mode" in rep["error"]


def test_float_points_that_do_not_span_are_an_input_error(tmp_path, capsys):
    text = "".join(",".join(repr(v) for v in p) + "\n" for p in FLOAT_LINE.points)
    code = main(["mvs", "--local", "--mode", "float", "--input",
                 write(tmp_path, "line8.csv", text)])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"] == "points do not affinely span the ambient space"


def test_float_seed_that_repeats_a_vertex_does_not_span(tmp_path, capsys):
    code = main(["mvs", "--local", "--mode", "float", "--seed", "0", "--input",
                 write(tmp_path, "dup7.csv", ROUNDING_CSV["dup7"])])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"] == "points do not affinely span the ambient space"


@pytest.mark.parametrize("command", ["mvs", "john"])
def test_float_enumeration_that_repeats_a_point_does_not_span(tmp_path, capsys, command):
    code = main([command, "--mode", "float", "--input",
                 write(tmp_path, "dup7.csv", ROUNDING_CSV["dup7"])])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["error_kind"] == "input-error"
    assert rep["error"] == "points do not affinely span the ambient space"


@pytest.mark.parametrize("name, command", [("flat15", "john"), ("flat69", "john"),
                                           ("line5", "mvs")])
def test_float_rounding_never_exits_2(tmp_path, name, command):
    # The float slab kernel's rounding fails john's checks on flat15 and
    # flat69: a numerical breakdown.  line5's float enumeration runs on its
    # binary rationals, so float mvs returns exact mode's maximum.
    path = write(tmp_path, f"{name}.csv", ROUNDING_CSV[name])
    code, rep = run(RunConfig(command=command, input=path, mode=ScalarMode.FLOAT))
    exact_code, exact_rep = run(RunConfig(command=command, input=path))
    assert exact_code == 0 and exact_rep["violations"] == []
    if command == "mvs":
        assert code == 0 and rep["violations"] == []
        got, want = (r["result"]["mvs"]["simplex"]["vertex_indices"] for r in (rep, exact_rep))
        assert got == want == [0, 1, 2]
    else:
        assert code == 1
        assert rep["error_kind"] == "input-error"
        assert rep["error"].endswith("rerun in exact mode")


@pytest.mark.parametrize("scale, code, error", [
    (1e200, 0, None),  # the exact volume 5e399 rounds to inf
    # 5e-401 rounds to 0.0, and the float kernel's inverse comes out singular
    (1e-200, 1, "the float slab kernel rounded a non-degenerate simplex to a singular one; "
                "rerun in exact mode"),
], ids=["1e200", "1e-200"])
def test_float_volume_out_of_range(tmp_path, capsys, scale, code, error):
    text = "".join(f"{a * scale!r},{b * scale!r}\n" for a, b in ((0, 0), (1, 0), (0, 1), (1, 1)))
    assert main(["mvs", "--mode", "float", "--input", write(tmp_path, "sq.csv", text)]) == code
    rep = json.loads(capsys.readouterr().out)
    if error is None:
        assert rep["result"]["mvs"]["volume"] == "inf"
        assert rep["result"]["mvs"]["simplex"]["vertex_indices"] == [0, 1, 2]
    else:
        assert (rep["error_kind"], rep["error"]) == ("input-error", error)


def test_float_rounding_is_no_violation_at_tol_zero():
    code, rep = run(parse_argv(["mvs", "--mode", "float", "--local", "--sample", "square",
                                "--n", "8", "--dim", "2", "--tol", "0"]))
    assert code == 0
    assert rep["violations"] == []


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
    # Only random-trials runs a process pool, so it imports one itself.
    code = "import sys, simplexcover.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(simplexcover.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


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

def test_main_writes_report_and_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["john", "--sample", "square", "--n", "8", "--dim", "2",
         "--output", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["command"] == "john"
    assert out.read_text(encoding="utf-8") == stdout


def test_main_unwritable_output_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["john", "--sample", "square", "--n", "12", "--dim", "2", "--output", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["error_kind"] == "input-error"
    assert str(out) in rep["error"]
    assert "result" not in rep and "violations" not in rep
    assert "simplexcover:" in captured.err
    assert not out.exists()


def test_main_error_goes_to_stderr(capsys):
    code = main(["mvs", "--input", "/absent.csv"])
    assert code == 1
    captured = capsys.readouterr()
    assert "simplexcover:" in captured.err
    assert json.loads(captured.out)["error_kind"] == "input-error"


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


def test_render_needs_output():
    code, rep = run(RunConfig(command="render", epsilon="1/5"))
    assert code == 1
    assert "--output" in rep["error"]
