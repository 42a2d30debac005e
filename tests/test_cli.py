"""Command line interface: parsing, exit codes, report envelopes.

``CONTRACT`` declares each command line's exit code, ``error_kind`` and
report once; ``test_contract`` runs every row through ``cli.main`` and
``test_contract_entry_point`` runs one row per outcome as
``python -m simplexcover.cli``.
"""
import ast
import concurrent.futures
import dataclasses
import functools
import json
import operator
import os
import random
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import pytest

from cover_cases import RIGHT, SQUARE, csv_text
from hard_inputs import HARD
from helpers import unimodular_witness
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

class Row(NamedTuple):
    """One command line and the report it must print.

    ``argv`` is split like a shell line and runs in a fresh directory that
    holds ``files`` (name -> text or bytes), so file names are relative.
    Besides the exit code and ``error_kind`` a row makes at most one more
    assertion, by the one keyword it sets among the last six.
    """
    argv: str
    code: int = 0
    kind: Optional[str] = None
    files: Dict[str, Union[str, bytes]] = {}
    error: Optional[str] = None  # the exact error
    prefix: Optional[str] = None  # how the error starts
    suffix: Optional[str] = None  # how the error ends
    field: Optional[Tuple[str, Any]] = None  # a report field by its dotted path, and its value
    file: Optional[Tuple[str, bytes]] = None  # an output file and its first bytes
    same_as: Optional[str] = None  # the row whose report this one prints, timings and input aside


def _lines(seed: int, n: int, field: Callable[[random.Random], str]) -> List[str]:
    """n lines of three comma-separated fields, each drawn by ``field``."""
    r = random.Random(seed)
    return [",".join(field(r) for _ in range(3)) for _ in range(n)]


def _json_text(points, *extra: str) -> str:
    """A JSON point file of integer points, then ``extra`` entries as written."""
    entries = [json.dumps([int(v) for v in p]) for p in points] + list(extra)
    return '{"dim": 2, "points": [' + ", ".join(entries) + "]}"


def _decimal(r):
    return "%.6f" % (r.randint(-999999, 999999) / 1e6)


CORNERS_CSV, RIGHT_CSV = csv_text(SQUARE.points), csv_text(RIGHT.vertices)
CORNERS_JSON = _json_text(SQUARE.points, '["1/2", "1/3"]')
P_T = {"p.csv": "0,0\n3,1\n1,4\n-2,2\n1/2,-3/2\n5/2,7/2\n", "t.csv": RIGHT_CSV}
LATIN = b"0,0\n1,\xe9\n0,1\n"
BOM = b"\xef\xbb\xbf" + (RIGHT_CSV + "1,1\n").encode()
DEC = _lines(0, 20, _decimal)
DEC_TWICE = [p for p in _lines(1, 10, _decimal) for _ in range(2)]
FAR = _lines(2, 20, lambda r: str(10**15 + r.randint(-99, 99)))
LF = _lines(3, 300, lambda r: repr(r.uniform(-1, 1)))
CRLF = ['"' + LF[0].replace(",", '",', 1), *LF[1:150], "", *LF[150:]]
TU4 = [",".join(map(str, p)) for p in unimodular_witness(5)]


def _text(lines: Sequence[str], end: str = "\n") -> str:
    return "".join(line + end for line in lines)


# The flags that render's five-point scene would ignore, with a value each.
SCENE_IGNORES = ["--input x.csv", "--format csv", "--sample square", "--n 12", "--dim 2",
                 "--seed 3", "--local", "--mode float", "--enum-cap 10"]
SPANS_NOTHING = "points do not affinely span the ambient space"
RERUN = "rerun in exact mode"
BAD_FRACTION = "bad epsilon/delta: Invalid literal for Fraction: ''"

CONTRACT: Dict[str, Row] = {
    "counterexample": Row("counterexample"),
    "john-square": Row("john --sample square --n 12 --dim 2"),
    # A 30-ball fills ~2e-14 of its cube, so rejection sampling misses it.
    "disk-d30": Row("john --mode float --sample disk --n 40 --dim 30", 1, "input-error",
                    error="rejection sampling found no point of the disk in dimension 30 "
                          "in 100000 draws from the cube"),
    # float() reads nan and inf, but they stay input errors in float mode;
    # -0.0 reads as 0.0, as it did through Fraction.
    "nan-csv": Row("john --mode float --input nan.csv", 1, "input-error",
                   {"nan.csv": "nan,1\n0,1\n1,0\n"},
                   error="line 1: cannot parse scalar 'nan': Invalid literal for Fraction: 'nan'"),
    "inf-json": Row("john --mode float --input inf.json", 1, "input-error",
                    {"inf.json": '{"dim": 2, "points": [["inf", 1], [0, 1], [1, 0]]}\n'},
                    error="point 0: cannot parse scalar 'inf': Invalid literal for Fraction: 'inf'"),
    "negzero": Row("john --mode float --input negzero.csv",
                   files={"negzero.csv": "-0.0,-0.0\n1,0\n0,1\n-0.0,1\n"}),
    # 1e400 parses to inf in float mode; it must not reach the float kernel.
    "1e400-csv": Row("john --mode float --input inf.csv", 1, "input-error",
                     {"inf.csv": RIGHT_CSV + "1e400,1\n"},
                     error="point 3 has a non-finite coordinate: (inf, 1.0)"),
    "1e400-json": Row("john --mode float --input inf.json", 1, "input-error",
                      {"inf.json": _json_text(RIGHT.vertices, "[1e400, 1]")},
                      error="point 3 has a non-finite coordinate: (inf, 1.0)"),
    # A p/q text goes through Fraction, whose float() overflows to inf here.
    "fraction-past-float": Row("john --mode float --input big.csv", 1, "input-error",
                               {"big.csv": "1" + "0" * 400 + "/3,0\n0,1\n1,0\n"},
                               error="point 0 has a non-finite coordinate: (inf, 0.0)"),
    # json.loads raises a plain ValueError past the integer digit limit and
    # RecursionError past its nesting depth; neither may end in a traceback.
    "json-5000-digits": Row("john --input big.json", 1, "input-error",
                            {"big.json": '{"dim": 1, "points": [[' + "7" * 5000 + "]]}\n"},
                            prefix="invalid JSON"),
    "json-nested": Row("john --input deep.json", 1, "input-error",
                       {"deep.json": "[" * 200_000 + "]" * 200_000}, prefix="invalid JSON"),
    # A "points" that is not a list, and a boolean "dim".
    "json-points-number": Row("john --input num.json", 1, "input-error",
                              {"num.json": '{"dim": 2, "points": 5}\n'},
                              error='"points" must be a list of points'),
    "json-points-null": Row("john --input null.json", 1, "input-error",
                            {"null.json": '{"dim": 2, "points": null}\n'},
                            error='"points" must be a list of points'),
    "json-dim-bool": Row("john --input bool.json", 1, "input-error",
                         {"bool.json": '{"dim": true, "points": [[0], [1], [2]]}\n'},
                         error='"dim" must be a positive integer'),
    "ragged-csv": Row("mvs --input bad.csv", 1, "input-error", {"bad.csv": "1,2\n3\n"},
                      error="line 2: expected 2 coordinates, got 1"),
    # csv.reader stops on a quoted field past its 131,072-character limit.
    "wide-field": Row("john --mode float --input wide.csv", 1, "input-error",
                      {"wide.csv": '"' + "1" * 200_000 + '",2\n'},
                      error="line 1: field larger than field limit (131072)"),
    # A quoted field spanning lines 1 and 2: the bad x is on line 4.
    "field-spans-lines": Row("john --input span.csv", 1, "input-error",
                             {"span.csv": '"1\n",3\n4,5\n6,x\n'}, prefix="line 4:"),
    # A quoted field keeps its line break: "1\n2" is not the number 12.
    "field-keeps-break": Row("john --input span2.csv", 1, "input-error",
                             {"span2.csv": '"1\n2",3\n4,5\n'}, prefix="line 1:"),
    # Python 3.11 reads "1_0" as 10, 3.10 rejects it; every version rejects it here.
    "underscore-exact": Row("john --input u.csv", 1, "input-error", {"u.csv": "0,0\n1_0,0\n0,1\n"},
                            error="line 2: cannot parse scalar '1_0': "
                                  "Invalid literal for Fraction: '1_0'"),
    "underscore-float": Row("john --mode float --input u.csv", 1, "input-error",
                            {"u.csv": "0,0\n1_0,0\n0,1\n"},
                            error="line 2: cannot parse scalar '1_0': "
                                  "Invalid literal for Fraction: '1_0'"),
    # A Latin-1 byte is not UTF-8; a UTF-8 byte-order mark is dropped.
    "latin-john": Row("john --input latin.csv", 1, "input-error", {"latin.csv": LATIN},
                      prefix="cannot read latin.csv: 'utf-8' codec can't decode byte 0xe9"),
    "latin-input": Row("dilation --input latin.csv --simplex t.csv", 1, "input-error",
                       {"latin.csv": LATIN, "t.csv": RIGHT_CSV},
                       prefix="cannot read latin.csv: 'utf-8' codec can't decode byte 0xe9"),
    "latin-simplex": Row("dilation --input bom.csv --simplex latin.csv", 1, "input-error",
                         {"bom.csv": BOM, "latin.csv": LATIN},
                         prefix="cannot read latin.csv: 'utf-8' codec can't decode byte 0xe9"),
    "bom-john": Row("john --input bom.csv", files={"bom.csv": BOM}),
    "corners-csv": Row("john --input pts.csv", files={"pts.csv": CORNERS_CSV + "1/2,1/3\n"}),
    "corners-csv-bom": Row("john --input pts.csv",
                           files={"pts.csv": "\ufeff" + CORNERS_CSV + "1/2,1/3\n"},
                           same_as="corners-csv"),
    "corners-json": Row("john --input pts.json", files={"pts.json": CORNERS_JSON}),
    "corners-json-bom": Row("john --input pts.json", files={"pts.json": "\ufeff" + CORNERS_JSON},
                            same_as="corners-json"),
    # Float local search loses precision near 1e200, or on a hyperplane of
    # R^4, and would swap a vertex for itself forever.
    "revisit-huge": Row("mvs --local --mode float --input huge.csv", 1, "input-error",
                        {"huge.csv": HARD["revisit-huge"].text()}, suffix=RERUN),
    "revisit-coplanar": Row("mvs --local --mode float --input coplanar.csv", 1, "input-error",
                            {"coplanar.csv": HARD["revisit-coplanar"].text()}, suffix=RERUN),
    # Eight collinear points whose rounding passes a float volume score.
    "line8-local": Row("mvs --local --mode float --input line8.csv", 1, "input-error",
                       {"line8.csv": HARD["line8"].text()}, error=SPANS_NOTHING),
    # A vertex's own slab value rounds past -d; exactly it is -d.
    "tol-0": Row("mvs --mode float --local --sample square --n 8 --dim 2 --tol 0"),
    "output-unwritable": Row("john --sample square --n 12 --dim 2 --output missing/r.json",
                             1, "input-error",
                             error="[Errno 2] No such file or directory: 'missing/r.json'"),
    "output": Row("john --sample square --n 8 --dim 2 --output report.json",
                  file=("report.json", b'{\n  "command": "john",')),
    # Near-flat float sets: rounding fails a check, so each run is a
    # numerical breakdown (exit 1), not a theorem violation (exit 2), while
    # exact mode passes every check.
    **{f"{name}-float": Row(f"john --mode float --input {name}.csv", 1, "input-error",
                            {f"{name}.csv": HARD[name].text()}, suffix=RERUN)
       for name in ("flat15", "flat69")},
    **{f"{name}-exact": Row(f"john --input {name}.csv", files={f"{name}.csv": HARD[name].text()})
       for name in ("flat15", "flat69")},
    # Float enumeration runs on the binary rationals the floats denote, so
    # line5 gets exact mode's maximum (0, 1, 2).
    **{f"line5-{mode}": Row(f"mvs --mode {mode} --input line5.csv",
                            files={"line5.csv": HARD["line5"].text()},
                            field=("result.mvs.simplex.vertex_indices", [0, 1, 2]))
       for mode in ("float", "exact")},
    # The unit square times 1e200: its exact volume rounds to inf, and the
    # report says "inf" instead of ending in a traceback.
    "square-1e200": Row("mvs --mode float --input big.csv",
                        files={"big.csv": HARD["square-1e200"].text()},
                        field=("result.mvs.volume", "inf")),
    # The same four floats: the first maximum is (0, 1, 2).
    "square-1e200-repr": Row("mvs --mode float --input sq.csv",
                             files={"sq.csv": HARD["square-1e200"].text()},
                             field=("result.mvs.simplex.vertex_indices", [0, 1, 2])),
    # Its float dilation fails the float certificate and asks for an exact
    # rerun: the one CLI run of that breakdown.
    "square-1e200-john": Row("john --mode float --input big.csv", 1, "input-error",
                             {"big.csv": HARD["square-1e200"].text()}, suffix=RERUN),
    # 5e-401 rounds to 0.0, and the float kernel's inverse comes out singular.
    "square-1e-200": Row("mvs --mode float --input sq.csv", 1, "input-error",
                         {"sq.csv": HARD["square-1e-200"].text()},
                         error="the float slab kernel rounded a non-degenerate simplex to a "
                               "singular one; rerun in exact mode"),
    # A near-flat float triangle: its exact doubled area is ~3.9e-17, so it
    # is a simplex, but the float slab kernel rounds it to a singular one.
    "flat3-dilation": Row("dilation --mode float --input flat3.csv --simplex flat3.csv", 1,
                          "input-error", {"flat3.csv": (
                              "-0.10101787042252375,0.3031859454455259\n"
                              "-0.913298696874054,-0.6401191015104615\n"
                              "-0.5700667549749437,-0.24152244315482463\n")}, suffix=RERUN),
    "john-no-input": Row("john", 1, "input-error",
                         error="no input: pass --input FILE or --sample BODY"),
    "missing-file": Row("mvs --input not-here.csv", 1, "input-error",
                        error="cannot read not-here.csv: [Errno 2] No such file or directory: "
                              "'not-here.csv'"),
    "sample-needs-n": Row("mvs --sample square", 1, "input-error",
                          error="--sample needs --n and --dim"),
    "zero-trials": Row("random-trials --sample square --n 5 --dim 2 --trials 0", 1,
                       "input-error", error="--trials must be positive"),
    # Every dilation LP row is built from the slab kernel.
    "sweep": Row("sweep --epsilons 1/20,1/10 --deltas 1/20,1/5"),
    "counterexample-infeasible": Row("counterexample --epsilon 1/3 --delta 1/4"),
    # One feasible and one infeasible row: min_dilation's certificate is the
    # only one, so it runs on both sides of feasibility.
    "sweep-both-sides": Row("sweep --epsilons 1/5,1/3 --deltas 1/4"),
    # Exact dilations run on the slab kernel's integers: large coprime
    # denominators, and a grid whose rows differ in denominator.
    "counterexample-coprime": Row("counterexample --epsilon 99991/1000003 --delta 100003/1000003"),
    "sweep-denominators": Row("sweep --epsilons 1/7,2/9 --deltas 1/11"),
    # Each (epsilon, delta) builds its ten triangles' kernels as one batch.
    "sweep-csv": Row("sweep --epsilons 1/5,3/10 --deltas 1/5,1/4 --csv s.csv"),
    "sweep-empty-list": Row("sweep --epsilons , --deltas 1/5", 1, "input-error",
                            error="--epsilons: empty list"),
    "sweep-zero-denominator": Row("sweep --epsilons 1/0 --deltas 1/5", 1, "input-error",
                                  error="--epsilons: Fraction(1, 0)"),
    "sweep-no-grids": Row("sweep", 1, "input-error",
                          error="the following arguments are required: --epsilons, --deltas"),
    "dilation-negative": Row("dilation --input p.csv --simplex t.csv --sign negative", files=P_T),
    # A float dilation derives the centroid and normals from the kernel.
    "dilation-float": Row("dilation --mode float --input p.csv --simplex t.csv", files=P_T),
    # A usage error prints an input-error report too; argparse reads -1/3
    # as an option, not as the value of --epsilon.
    "epsilon-negative": Row("counterexample --epsilon -1/3", 1, "input-error",
                            prefix="argument --epsilon: expected one argument"),
    "epsilon-equals-negative": Row("counterexample --epsilon=-1/3", 1, "input-error",
                                   suffix="epsilon and delta must lie strictly between 0 and 1"),
    "epsilon-zero-denominator": Row("counterexample --epsilon 7/0", 1, "input-error",
                                    error="bad epsilon/delta: Fraction(7, 0)"),
    "sign-neg": Row("dilation --input p.csv --simplex t.csv --sign neg", 1, "input-error", P_T,
                    prefix="argument --sign: invalid choice: 'neg'"),
    # A command that never reads --mode, --seed or --tol does not accept it.
    "counterexample-mode": Row("counterexample --mode exact", 1, "input-error",
                               prefix="unrecognized arguments: --mode exact"),
    "counterexample-mode-float": Row("counterexample --mode float", 1, "input-error",
                                     prefix="unrecognized arguments: --mode float"),
    "sweep-mode": Row("sweep --mode float --epsilons 1/5 --deltas 1/5", 1, "input-error",
                      prefix="unrecognized arguments: --mode float"),
    "sweep-seed": Row("sweep --seed 1 --epsilons 1/5 --deltas 1/5", 1, "input-error",
                      prefix="unrecognized arguments: --seed 1"),
    "dilation-seed": Row("dilation --input p.csv --simplex t.csv --seed 1", 1, "input-error", P_T,
                         prefix="unrecognized arguments: --seed 1"),
    "john-tol": Row("john --sample disk --n 40 --dim 2 --mode float --tol 1e-6", 1,
                    "input-error", prefix="unrecognized arguments: --tol 1e-6"),
    "tol-exact": Row("mvs --input x --tol 1e-9", 1, "input-error",
                     error="--tol applies to float mode only"),
    **{f"tol-{name}": Row(f"mvs --input x --mode float --tol {tol}", 1, "input-error",
                          error=f"--tol must be finite and >= 0, got {float(tol)}")
       for name, tol in (("negative", "-1"), ("nan", "nan"), ("inf", "inf"))},
    **{f"enum-cap-{command}": Row(f"{command} --sample square --n 12 --dim 2{out} --enum-cap -1",
                                  1, "input-error", error="--enum-cap must be >= 0, got -1")
       for command, out in (("john", ""), ("random-trials", ""), ("render", " --output x.svg"),
                            ("mvs", ""))},
    "input-and-sample": Row("mvs --input x --sample square", 1, "input-error",
                            error="--input and --sample are mutually exclusive"),
    "dilation-no-simplex": Row("dilation --input x", 1, "input-error",
                               error="the following arguments are required: --simplex"),
    "sample-torus": Row("john --sample torus --n 5 --dim 2", 1, "input-error",
                        prefix="argument --sample: invalid choice: 'torus'"),
    "no-such-command": Row("nonsense", 1, "input-error",
                           prefix="argument command: invalid choice: 'nonsense'"),
    # A point flag with nothing to read is a usage error.
    "n-without-sample": Row("john --input p.csv --n 3", 1, "input-error",
                            prefix="--n would be ignored"),
    "dim-without-sample": Row("mvs --input p.csv --dim 5", 1, "input-error",
                              prefix="--dim would be ignored"),
    "format-without-input": Row("john --sample square --n 12 --dim 2 --format json", 1,
                                "input-error", prefix="--format would be ignored"),
    # Local search enumerates no subsets, and exact mvs never searches.
    **{f"enum-cap-local-{command}": Row(f"{command} --local --enum-cap 3 --input sq.csv{out}", 1,
                                        "input-error", {"sq.csv": CORNERS_CSV},
                                        prefix="--enum-cap would be ignored")
       for command, out in (("mvs", ""), ("render", " --output o.svg"))},
    "mvs-seed": Row("mvs --seed 7 --input sq.csv", 1, "input-error", {"sq.csv": CORNERS_CSV},
                    prefix="--seed would be ignored"),
    # render's five-point scene reads no points, so it refuses point flags.
    # Where the --output directory does not exist, a scene that is drawn
    # would fail with another error.
    "scene-sample": Row("render --epsilon 1/5 --sample square --n 12 --dim 2 --output x.svg", 1,
                        "input-error", prefix="the five-point scene of --epsilon/--delta "
                                              "takes no --sample, --n, --dim"),
    **{f"scene-{scene}-{flag.split()[0][2:]}": Row(
        f"render --{scene} 1/5 {flag} --output no-such-dir/x.svg", 1, "input-error",
        prefix=f"the five-point scene of --epsilon/--delta takes no {flag.split()[0]}")
       for scene in ("epsilon", "delta") for flag in SCENE_IGNORES},
    "scene-five-flags": Row("render --epsilon 1/5 --sample square --n 12 --dim 2 --seed 3 "
                            "--mode float --output no-such-dir/x.svg", 1, "input-error",
                            prefix="the five-point scene of --epsilon/--delta takes no "
                                   "--sample, --n, --dim, --seed, --mode"),
    # Only a flag left out falls back to 1/5; an empty one is bad input.
    "epsilon-empty": Row("counterexample --epsilon ''", 1, "input-error", error=BAD_FRACTION),
    "epsilon-delta-empty": Row("counterexample --epsilon '' --delta ''", 1, "input-error",
                               error=BAD_FRACTION),
    "delta-empty": Row("counterexample --delta ''", 1, "input-error", error=BAD_FRACTION),
    "render-delta-empty": Row("render --delta '' --output no-such-dir/x.svg", 1, "input-error",
                              error=BAD_FRACTION),
    "render-no-output": Row("render --epsilon 1/5", 1, "input-error",
                            error="render needs --output FILE.svg"),
    # render writes the SVG to --output and the report to stdout.
    "render-local": Row("render --sample square --n 12 --dim 2 --local --output scene.svg",
                        file=("scene.svg", b"<svg")),
    # An SVG holds floats: an exact coordinate past their range, or a
    # scene whose (d+2)-dilate leaves it, is an input error, not a traceback.
    "render-1e400": Row("render --input h.csv --output h.svg", 1, "input-error",
                        {"h.csv": "0,0\n1e400,0\n0,1\n"},
                        error="cannot render: a point coordinate is not a finite float"),
    **{f"render-1e308-{mode}": Row(f"render --mode {mode} --input w.csv --output w.svg", 1,
                                   "input-error", {"w.csv": "1e308,0\n-1e308,0\n0,1\n"},
                                   error="cannot render: a simplex coordinate is not a finite "
                                         "float")
       for mode in ("exact", "float")},
    # Two worker processes run the trials in a real process pool.
    "trials-jobs-2": Row("random-trials --sample square --n 8 --dim 2 --trials 3 --jobs 2",
                         field=("result.ok_count", 3)),
    # The d = 4 totally unimodular witness: its first maximum-volume simplex
    # needs lambda+ = d+2 = 6.
    "tu4": Row("john --input tu4.csv", files={"tu4.csv": _text(TU4)},
               field=("result.cover.positive.lam", "6")),
    # Exact local search builds one kernel per swap step.
    "john-local-300": Row("john --sample square --n 300 --dim 3"),
    # Seven points of R^4, four of them equal: neither float search may
    # return a subset that repeats a point, nor seed with a repeated vertex.
    **{f"dup7-{command}": Row(f"{command} --mode float --input dup7.csv", 1, "input-error",
                              {"dup7.csv": HARD["dup7"].text()}, error=SPANS_NOTHING)
       for command in ("mvs", "john")},
    "dup7-local": Row("mvs --local --mode float --seed 0 --input dup7.csv", 1, "input-error",
                      {"dup7.csv": HARD["dup7"].text()}, error=SPANS_NOTHING),
    # 20 points of R^3 with 6 decimals: their integers span ~2 * 10^6, so the
    # exact float64 walk rescores its near-maximal subsets exactly.
    "decimals": Row("john --input dec20.csv", files={"dec20.csv": _text(DEC)}),
    # Ten such points, each written twice: the maximum ties 16 ways, and the
    # filter rescores the ties and keeps the first in walk order.
    "decimals-twice": Row("john --input dec2.csv", files={"dec2.csv": _text(DEC_TWICE)}),
    # Integers around 10^15: translating by the column minima keeps the walk
    # exact without a filter.
    "far-integers": Row("john --input far.csv", files={"far.csv": _text(FAR)}),
    # Exact d = 7, whose facet cofactors are 6 x 6 minors.
    "mvs-d7": Row("mvs --sample square --n 10 --dim 7"),
    # C(2000, 2) subsets, just under the default enumeration cap.
    "mvs-2000-d1": Row("mvs --sample square --n 2000 --dim 1"),
    # A float-local-shaped file with CRLF endings, a blank line and a quoted
    # field (read by csv.reader) gives the plain LF file's report; so do the
    # same points as a JSON file, which take the same field parser.
    "lf": Row("john --mode float --input lf.csv", files={"lf.csv": _text(LF)}),
    "crlf": Row("john --mode float --input crlf.csv", files={"crlf.csv": _text(CRLF, "\r\n")},
                same_as="lf"),
    "lf-json": Row("john --mode float --input lf-points.json", files={"lf-points.json": json.dumps(
        {"dim": 3, "points": [[float(v) for v in line.split(",")] for line in LF]}) + "\n"},
        same_as="lf"),
}


def _setup(row: Row, cwd: Path) -> List[str]:
    """Write the row's files into the new directory ``cwd``; returns its argv."""
    cwd.mkdir()
    for name, content in row.files.items():
        (cwd / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return shlex.split(row.argv)


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
    argv = _setup(CONTRACT[name], cwd)
    monkeypatch.chdir(cwd)
    code = main(argv)
    out, err = capsys.readouterr()
    return _check(CONTRACT[name], code, out, err, cwd)


@pytest.mark.parametrize("name", list(CONTRACT))
def test_contract(name, tmp_path, monkeypatch, capsys):
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
    argv = _setup(CONTRACT[name], cwd)
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