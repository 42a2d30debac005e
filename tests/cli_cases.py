"""The command line's contract: one row per argv, and the texts it reads.

``CONTRACT`` declares each command line's exit code, ``error_kind`` and
report once.  ``test_cli.test_contract`` runs every row through
``cli.main``; ``test_report_pin`` runs each row that carries a report digest
and compares the digests.
"""
import json
import random
import shlex
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from cover_cases import RIGHT, SQUARE, csv_text
from hard_inputs import HARD
from helpers import unimodular_witness


class Row(NamedTuple):
    """One command line and the report it must print.

    ``argv`` is split like a shell line and runs in a fresh directory that
    holds ``files`` (name -> text or bytes), so file names are relative.
    Besides the exit code and ``error_kind`` a row makes at most one more
    assertion, by the one keyword it sets among ``error`` to ``same_as``.
    A row that sets ``digest`` and ``digest_v1`` pins its whole report by
    them, so it sets none of ``error`` to ``file``.  The tests turn a
    RuntimeWarning into an error, so a run that emits one sets ``warns``.
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
    digest: Optional[str] = None  # sha256 of the schema-2 report, timings dropped
    digest_v1: Optional[str] = None  # sha256 of that report's schema-1 form (``report_v1``)
    warns: bool = False  # numpy warns of float overflow (ROADMAP item 5)


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
    # epsilon and delta default to 1/5.
    "counterexample-fifths": Row(
        "counterexample --epsilon 1/5 --delta 1/5", same_as="counterexample",
        digest="e01e71221ca251ea1f88a01dd549453ce7fd072d868ec2c592af14c1af9a0e6e",
        digest_v1="2bb17eaa6647c5873198a99050cab85c65884b9aa8d41b39a3ad0a0f7f3bf63c"),
    "john-square": Row(
        "john --sample square --n 12 --dim 2",
        digest="aaeab44df24a454e231d7892665aa64f78a9cd3f42bb94697d95674e6a72332a",
        digest_v1="42d7e57bc71cf3dac54c24ca0a0c252293d7b689b3193309743f294a0f4329ef"),
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
                        {"huge.csv": HARD["revisit-huge"].text()}, suffix=RERUN, warns=True),
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
                        field=("result.mvs.volume", "inf"), warns=True),
    # The same four floats: the first maximum is (0, 1, 2).
    "square-1e200-repr": Row("mvs --mode float --input sq.csv",
                             files={"sq.csv": HARD["square-1e200"].text()},
                             field=("result.mvs.simplex.vertex_indices", [0, 1, 2]),
                             warns=True),
    # Its float dilation fails the float certificate and asks for an exact
    # rerun: the one CLI run of that breakdown.
    "square-1e200-john": Row("john --mode float --input big.csv", 1, "input-error",
                             {"big.csv": HARD["square-1e200"].text()}, suffix=RERUN,
                             warns=True),
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
    "sweep": Row("sweep --epsilons 1/20,1/10 --deltas 1/20,1/5",
                 digest="bfd2deaeb14da60851e0cf913fb257c1fc67418f14c131d7a463ec0de5fa24a5",
                 digest_v1="40dd3529c5c4ee3070a7405ea02cded264079b929d783922ddffb07eda4ace7b"),
    "counterexample-infeasible": Row(
        "counterexample --epsilon 1/3 --delta 1/4",
        digest="843f1263399240de506442ed5fb1320e4271e22b86f460f6aed05bee515faee1",
        digest_v1="dc388f4922361687ed798273c487c615bea1e6ad011d22db5fe28c298b2a480a"),
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
    "dilation-negative": Row(
        "dilation --input p.csv --simplex t.csv --sign negative", files=P_T,
        digest="a7c024035610f430678df8567c964f41370c8522cd7b29c292d3c30758faa22c",
        digest_v1="0ef11e3c1e118b20d768b34819893b7e061f2ca819db3f3415c26b5b4f2ebbb8"),
    # A float dilation derives the centroid and normals from the kernel.
    "dilation-float": Row(
        "dilation --mode float --input p.csv --simplex t.csv", files=P_T,
        digest="6df1c1b4bd3a229bfdbfacc73e11e022e8c294e418753c163c484888c9c5b6e8",
        digest_v1="fe6a32ffb1066e3e225d82a9d91d5d34075795a258cb3e65d19a19755c22c8c4"),
    # A vertex denominator (3) that none of p.csv's coordinates has.
    "dilation-t3": Row(
        "dilation --input p.csv --simplex t3.csv",
        files={"p.csv": P_T["p.csv"], "t3.csv": "0,0\n7/3,0\n0,5/3\n"},
        digest="8a2f1d675278ff46a09e9db6509229fdb7f81e28113e0a1a7fefb6485c1e18e3",
        digest_v1="4b579966b960d501c8c718f8accf8d8f5402f6eecd43490d8f8b74b46cf735c1"),
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
    "mvs-d7": Row("mvs --sample square --n 10 --dim 7",
                  digest="1538ca630b5c7e6c49d708fb6ca65a3e3d9026e998b8c3d243fc07690be41444",
                  digest_v1="ee5aab26c70151dcf92b7bc5a15a56e2c993bd853b45468086052072fdb48b65"),
    # The float walk on float input, the same points.
    "mvs-d7-float": Row(
        "mvs --mode float --sample square --n 10 --dim 7",
        digest="83da1da80de40d0229b480583a5dbcb971b2b80558d136f0afcf170c25043c3c",
        digest_v1="2abff67a6519e09cca19a178e843eea19a81dc47eeddc1caf7ca2b4321e6dfb9"),
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
    # The reports below are pinned byte for byte, as are the rows above that
    # carry a digest.  Exact enumeration in d = 5, and on 10 points of R^3
    # with 6 decimals, whose walk takes its rounding filter.
    "john-d5": Row(
        "john --sample square --n 10 --dim 5",
        digest="4655cf779d0ce934949255fe786d6071c573d15d4f8bce0f10eadefa7010f9a9",
        digest_v1="a777b9978c226d70befc82b9a11affec50ce17f4f02e3861be06f3a0135fb331"),
    "decimals-10": Row(
        "john --input dec.csv",
        files={"dec.csv": (
            "-0.527904,-0.793668,-0.207884\n"
            "-0.690055,-0.866970,-0.196818\n"
            "0.835910,0.600905,0.530325\n"
            "-0.556144,0.073360,-0.446635\n"
            "-0.654671,-0.787633,-0.571199\n"
            "0.854951,0.657840,0.613305\n"
            "0.600896,-0.613129,-0.380300\n"
            "0.253951,0.463789,0.709297\n"
            "0.760102,-0.826563,0.211704\n"
            "0.343403,0.011908,-0.644420\n")},
        digest="a4a9395deefc86da38b4203bb0b817e87e9aa5148ede1bd76d20e2cea456c141",
        digest_v1="11266f87ad66ad6b6a53136444ceeb38e4c7ffa24b648d99ca1c9b49c6d96290"),
    # Float local search, and float enumeration in d = 3, which reports the
    # exact maximum volume rounded once: 0.30621223352182314, where float64
    # determinants gave 0.30621223352182309, one ulp less.  Its digests were
    # re-pinned for that change.
    "disk-300-float": Row(
        "john --mode float --sample disk --n 300 --dim 3",
        digest="d01685b6a999d6141d8f4c9d180949e06f3cd2483fc63aa36d7e9aef2e4210ab",
        digest_v1="4a3681da0b8ce584a5a2b678886fdbf1e7ce58b401a42edb6ef13f1652509847"),
    "square-12-d3-float": Row(
        "john --mode float --sample square --n 12 --dim 3",
        digest="b28f4107de6c500cdbbbf97e97e28e856a1e1cc6438d912b3eed562a0db36eea",
        digest_v1="b9d42c37d25eddb166f36cf1943c05fc4966c9b011e029ce21444d58540388dc"),
    # Exact local search, and over many distinct prime denominators, where
    # it makes 2 swaps.
    "local-40": Row(
        "mvs --local --sample square --n 40 --dim 3",
        digest="00ad59b72c3448648b3c24c2312094eaa64ed184da8afce08d52daea8a3d8291",
        digest_v1="50133a873c0c298147c426cccd0893899d9963bdee1d2312cf90735b355de8d8"),
    "mixed-local": Row(
        "mvs --local --input mixed.csv",
        files={"mixed.csv": (
            "2,18/61\n21/89,26/41\n18/97,-37/5\n-19/41,-24/29\n-33/17,-34/41\n"
            "-11/53,-15/23\n-24/13,4/61\n0,11/5\n2/29,-3\n30/47,9/53\n"
            "-9/83,-21/5\n17/79,21/23\n")},
        digest="db64b9d1c799954dc7b31ddce30c12bf1594565c74775374940fa63860f0b603",
        digest_v1="e45fae25eb60a0146bab286e46bf603b362ae07d3f725960c9427240e9b34c36"),
    "trials": Row(
        "random-trials --sample square --n 8 --dim 2 --trials 3",
        digest="a2d1b116dd4d55943df675d7384b7c47351e71633a5809d90c2b6e0c5e9e8a1d",
        digest_v1="c653d022bd0e377500221f1311e34a574f66e632a9edf3e2d2bc0d5abf2d880c"),
    # Input errors: exact enumeration of a body with no rational vertices,
    # and local search's spanning error on collinear points of the plane and
    # on three equal points of the line.
    "regular-simplex-exact": Row(
        "john --sample regular-simplex --n 5 --dim 2", 1, "input-error",
        digest="7fcd91c7bb786bd69a032865684b1822f303db6b83068ba7cb4e82ec1b06a85f",
        digest_v1="03bbeb95652a0e6318272b262d5bcabb2ef9d45dd93526a535057232aa2c607b"),
    "collinear-local": Row(
        "mvs --local --input col.csv", 1, "input-error", {"col.csv": "0,0\n1,2\n2,4\n1/2,1\n"},
        digest="60adc2e1b05f1dfa990dc239f535286c624af037d2c1167ed133a72a381e3cfb",
        digest_v1="0e99207cb5321c6da15b08954b69bb830cbeddaf2863d05adf159481ca588e33"),
    "same1-local": Row(
        "mvs --local --input same1.csv", 1, "input-error", {"same1.csv": "1\n1\n1\n"},
        digest="0ce378552d9b86fa64652892f6f27edee623fa415b6f00e8b0f7f8654b175278",
        digest_v1="67aac2dae63e8594b902c4e6af728b13344a4ee76735620a73672c72ca758d14"),
}


def setup(row: Row, cwd: Path) -> List[str]:
    """Write the row's files into the new directory ``cwd``; returns its argv."""
    cwd.mkdir()
    for name, content in row.files.items():
        (cwd / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return shlex.split(row.argv)

