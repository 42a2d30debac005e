"""Byte-level pins of whole CLI reports.

Each case runs ``cli.run(parse_argv(argv))`` in a fresh directory with
relative file names, drops the ``timings`` block and compares the sha256 of
the serialized report with a recorded value.  Together the cases reach every
enumeration path of ``mvs_exact`` (int64, big-integer, float64 for d <= 6,
and both d > 6 paths), local search in both modes, both dilation signs, a
float dilation, the counterexample on both sides of feasibility, the sweep,
random trials, an input-error report from exact enumeration, local
search's spanning error in dimensions 2 and 1, a dilation whose simplex
has a denominator the points lack, and an exact local search over many
distinct denominators.  A refactor that is meant
to keep answers unchanged must keep every hash.  The float cases pin Python's uncompensated float ``sum``;
Python 3.12 changed it, so their digests hold for Python 3.10 and 3.11.
"""
import hashlib

import pytest

from simplexcover.cli import parse_argv, run
from simplexcover.serialization import dumps_report

FILES = {
    # 6-digit decimals: the common denominator 10^6 fails the int64 guard.
    "dec.csv": (
        "-0.527904,-0.793668,-0.207884\n"
        "-0.690055,-0.866970,-0.196818\n"
        "0.835910,0.600905,0.530325\n"
        "-0.556144,0.073360,-0.446635\n"
        "-0.654671,-0.787633,-0.571199\n"
        "0.854951,0.657840,0.613305\n"
        "0.600896,-0.613129,-0.380300\n"
        "0.253951,0.463789,0.709297\n"
        "0.760102,-0.826563,0.211704\n"
        "0.343403,0.011908,-0.644420\n"
    ),
    "p.csv": "0,0\n3,1\n1,4\n-2,2\n1/2,-3/2\n5/2,7/2\n",
    # Collinear in the plane, and three equal points on the line.
    "col.csv": "0,0\n1,2\n2,4\n1/2,1\n",
    "same1.csv": "1\n1\n1\n",
    "t.csv": "0,0\n1,0\n0,1\n",
    # A vertex denominator (3) that none of p.csv's coordinates has.
    "t3.csv": "0,0\n7/3,0\n0,5/3\n",
    # Many distinct prime denominators; local search makes 2 swaps.
    "mixed.csv": (
        "2,18/61\n21/89,26/41\n18/97,-37/5\n-19/41,-24/29\n-33/17,-34/41\n"
        "-11/53,-15/23\n-24/13,4/61\n0,11/5\n2/29,-3\n30/47,9/53\n"
        "-9/83,-21/5\n17/79,21/23\n"
    ),
}

CASES = [
    (["john", "--sample", "square", "--n", "12", "--dim", "2"], 0,
     "42d7e57bc71cf3dac54c24ca0a0c252293d7b689b3193309743f294a0f4329ef"),
    (["john", "--sample", "square", "--n", "10", "--dim", "5"], 0,
     "a777b9978c226d70befc82b9a11affec50ce17f4f02e3861be06f3a0135fb331"),
    (["john", "--input", "dec.csv"], 0,
     "11266f87ad66ad6b6a53136444ceeb38e4c7ffa24b648d99ca1c9b49c6d96290"),
    (["mvs", "--sample", "square", "--n", "10", "--dim", "7"], 0,
     "ee5aab26c70151dcf92b7bc5a15a56e2c993bd853b45468086052072fdb48b65"),
    (["mvs", "--mode", "float", "--sample", "square", "--n", "10", "--dim", "7"], 0,
     "2abff67a6519e09cca19a178e843eea19a81dc47eeddc1caf7ca2b4321e6dfb9"),
    (["john", "--mode", "float", "--sample", "disk", "--n", "300", "--dim", "3"], 0,
     "4a3681da0b8ce584a5a2b678886fdbf1e7ce58b401a42edb6ef13f1652509847"),
    (["mvs", "--local", "--sample", "square", "--n", "40", "--dim", "3"], 0,
     "50133a873c0c298147c426cccd0893899d9963bdee1d2312cf90735b355de8d8"),
    (["dilation", "--input", "p.csv", "--simplex", "t.csv", "--sign", "negative"], 0,
     "0ef11e3c1e118b20d768b34819893b7e061f2ca819db3f3415c26b5b4f2ebbb8"),
    (["dilation", "--mode", "float", "--input", "p.csv", "--simplex", "t.csv"], 0,
     "fe6a32ffb1066e3e225d82a9d91d5d34075795a258cb3e65d19a19755c22c8c4"),
    (["counterexample", "--epsilon", "1/5", "--delta", "1/5"], 0,
     "2bb17eaa6647c5873198a99050cab85c65884b9aa8d41b39a3ad0a0f7f3bf63c"),
    (["counterexample", "--epsilon", "1/3", "--delta", "1/4"], 0,
     "dc388f4922361687ed798273c487c615bea1e6ad011d22db5fe28c298b2a480a"),
    (["sweep", "--epsilons", "1/20,1/10", "--deltas", "1/20,1/5"], 0,
     "40dd3529c5c4ee3070a7405ea02cded264079b929d783922ddffb07eda4ace7b"),
    (["random-trials", "--sample", "square", "--n", "8", "--dim", "2",
      "--trials", "3"], 0,
     "c653d022bd0e377500221f1311e34a574f66e632a9edf3e2d2bc0d5abf2d880c"),
    (["john", "--sample", "regular-simplex", "--n", "5", "--dim", "2"], 1,
     "03bbeb95652a0e6318272b262d5bcabb2ef9d45dd93526a535057232aa2c607b"),
    (["john", "--mode", "float", "--sample", "square", "--n", "12", "--dim", "3"], 0,
     "a63ccc3652b9cf1a6dcd7ac4f16634c58768038a5f49785202cc81dd5b6ed2fc"),
    (["mvs", "--local", "--input", "col.csv"], 1,
     "0e99207cb5321c6da15b08954b69bb830cbeddaf2863d05adf159481ca588e33"),
    (["mvs", "--local", "--input", "same1.csv"], 1,
     "67aac2dae63e8594b902c4e6af728b13344a4ee76735620a73672c72ca758d14"),
    (["dilation", "--input", "p.csv", "--simplex", "t3.csv"], 0,
     "4b579966b960d501c8c718f8accf8d8f5402f6eecd43490d8f8b74b46cf735c1"),
    (["mvs", "--local", "--input", "mixed.csv"], 0,
     "e45fae25eb60a0146bab286e46bf603b362ae07d3f725960c9427240e9b34c36"),
]


@pytest.mark.parametrize("argv, code, digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_report_is_pinned(tmp_path, monkeypatch, argv, code, digest):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    got_code, report = run(parse_argv(argv))
    del report["timings"]
    got = hashlib.sha256(dumps_report(report).encode("utf-8")).hexdigest()
    assert (got_code, got) == (code, digest)
