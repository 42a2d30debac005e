"""Byte-level pins of whole CLI reports.

Each case runs ``cli.run(parse_argv(argv))`` in a fresh directory with
relative file names, drops the ``timings`` block and compares the sha256 of
the serialized report with a recorded value.  Together the cases reach every
enumeration path of ``mvs_exact`` up to d = 7 (the float64 walk, both
without and with its rounding filter, on exact and on float input), local
search in both modes, both dilation signs, a
float dilation, the counterexample on both sides of feasibility, the sweep,
random trials, an input-error report from exact enumeration, local
search's spanning error in dimensions 2 and 1, a dilation whose simplex
has a denominator the points lack, and an exact local search over many
distinct denominators.  A refactor that is meant to keep answers unchanged
must keep every hash.  The float cases pin Python's uncompensated float
``sum``; Python 3.12 changed it, so their digests hold for Python 3.10 and
3.11.

The reports are in schema 2.  ``helpers.report_v1`` maps each one back to
schema 1, and the result must hash to the case's digest in ``V1_DIGESTS``,
recorded before schema 2 existed: the schema changed, the answers did not.
One case was re-pinned since: ``john --mode float --sample square --n 12
--dim 3`` reports the exact maximum volume rounded once, 0.30621223352182314,
where float64 determinants gave 0.30621223352182309, one ulp less.
"""
import hashlib

import pytest

from helpers import report_v1
from simplexcover.cli import _load_points, parse_argv, run
from simplexcover.serialization import dumps_report

FILES = {
    # 6-digit decimals: their integers span ~2 * 10^6, so the exact walk
    # takes its rounding filter.
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
     "aaeab44df24a454e231d7892665aa64f78a9cd3f42bb94697d95674e6a72332a"),
    (["john", "--sample", "square", "--n", "10", "--dim", "5"], 0,
     "4655cf779d0ce934949255fe786d6071c573d15d4f8bce0f10eadefa7010f9a9"),
    (["john", "--input", "dec.csv"], 0,
     "a4a9395deefc86da38b4203bb0b817e87e9aa5148ede1bd76d20e2cea456c141"),
    (["mvs", "--sample", "square", "--n", "10", "--dim", "7"], 0,
     "1538ca630b5c7e6c49d708fb6ca65a3e3d9026e998b8c3d243fc07690be41444"),
    (["mvs", "--mode", "float", "--sample", "square", "--n", "10", "--dim", "7"], 0,
     "83da1da80de40d0229b480583a5dbcb971b2b80558d136f0afcf170c25043c3c"),
    (["john", "--mode", "float", "--sample", "disk", "--n", "300", "--dim", "3"], 0,
     "d01685b6a999d6141d8f4c9d180949e06f3cd2483fc63aa36d7e9aef2e4210ab"),
    (["mvs", "--local", "--sample", "square", "--n", "40", "--dim", "3"], 0,
     "00ad59b72c3448648b3c24c2312094eaa64ed184da8afce08d52daea8a3d8291"),
    (["dilation", "--input", "p.csv", "--simplex", "t.csv", "--sign", "negative"], 0,
     "a7c024035610f430678df8567c964f41370c8522cd7b29c292d3c30758faa22c"),
    (["dilation", "--mode", "float", "--input", "p.csv", "--simplex", "t.csv"], 0,
     "6df1c1b4bd3a229bfdbfacc73e11e022e8c294e418753c163c484888c9c5b6e8"),
    (["counterexample", "--epsilon", "1/5", "--delta", "1/5"], 0,
     "e01e71221ca251ea1f88a01dd549453ce7fd072d868ec2c592af14c1af9a0e6e"),
    (["counterexample", "--epsilon", "1/3", "--delta", "1/4"], 0,
     "843f1263399240de506442ed5fb1320e4271e22b86f460f6aed05bee515faee1"),
    (["sweep", "--epsilons", "1/20,1/10", "--deltas", "1/20,1/5"], 0,
     "bfd2deaeb14da60851e0cf913fb257c1fc67418f14c131d7a463ec0de5fa24a5"),
    (["random-trials", "--sample", "square", "--n", "8", "--dim", "2",
      "--trials", "3"], 0,
     "a2d1b116dd4d55943df675d7384b7c47351e71633a5809d90c2b6e0c5e9e8a1d"),
    (["john", "--sample", "regular-simplex", "--n", "5", "--dim", "2"], 1,
     "7fcd91c7bb786bd69a032865684b1822f303db6b83068ba7cb4e82ec1b06a85f"),
    (["john", "--mode", "float", "--sample", "square", "--n", "12", "--dim", "3"], 0,
     "b28f4107de6c500cdbbbf97e97e28e856a1e1cc6438d912b3eed562a0db36eea"),
    (["mvs", "--local", "--input", "col.csv"], 1,
     "60adc2e1b05f1dfa990dc239f535286c624af037d2c1167ed133a72a381e3cfb"),
    (["mvs", "--local", "--input", "same1.csv"], 1,
     "0ce378552d9b86fa64652892f6f27edee623fa415b6f00e8b0f7f8654b175278"),
    (["dilation", "--input", "p.csv", "--simplex", "t3.csv"], 0,
     "8a2f1d675278ff46a09e9db6509229fdb7f81e28113e0a1a7fefb6485c1e18e3"),
    (["mvs", "--local", "--input", "mixed.csv"], 0,
     "db64b9d1c799954dc7b31ddce30c12bf1594565c74775374940fa63860f0b603"),
]

# The schema-1 digest of each case: ``report_v1`` of its schema-2 report
# must hash to it, so every answer is the one pinned before schema 2.
V1_DIGESTS = {
    "john --sample square --n 12 --dim 2":
        "42d7e57bc71cf3dac54c24ca0a0c252293d7b689b3193309743f294a0f4329ef",
    "john --sample square --n 10 --dim 5":
        "a777b9978c226d70befc82b9a11affec50ce17f4f02e3861be06f3a0135fb331",
    "john --input dec.csv":
        "11266f87ad66ad6b6a53136444ceeb38e4c7ffa24b648d99ca1c9b49c6d96290",
    "mvs --sample square --n 10 --dim 7":
        "ee5aab26c70151dcf92b7bc5a15a56e2c993bd853b45468086052072fdb48b65",
    "mvs --mode float --sample square --n 10 --dim 7":
        "2abff67a6519e09cca19a178e843eea19a81dc47eeddc1caf7ca2b4321e6dfb9",
    "john --mode float --sample disk --n 300 --dim 3":
        "4a3681da0b8ce584a5a2b678886fdbf1e7ce58b401a42edb6ef13f1652509847",
    "mvs --local --sample square --n 40 --dim 3":
        "50133a873c0c298147c426cccd0893899d9963bdee1d2312cf90735b355de8d8",
    "dilation --input p.csv --simplex t.csv --sign negative":
        "0ef11e3c1e118b20d768b34819893b7e061f2ca819db3f3415c26b5b4f2ebbb8",
    "dilation --mode float --input p.csv --simplex t.csv":
        "fe6a32ffb1066e3e225d82a9d91d5d34075795a258cb3e65d19a19755c22c8c4",
    "counterexample --epsilon 1/5 --delta 1/5":
        "2bb17eaa6647c5873198a99050cab85c65884b9aa8d41b39a3ad0a0f7f3bf63c",
    "counterexample --epsilon 1/3 --delta 1/4":
        "dc388f4922361687ed798273c487c615bea1e6ad011d22db5fe28c298b2a480a",
    "sweep --epsilons 1/20,1/10 --deltas 1/20,1/5":
        "40dd3529c5c4ee3070a7405ea02cded264079b929d783922ddffb07eda4ace7b",
    "random-trials --sample square --n 8 --dim 2 --trials 3":
        "c653d022bd0e377500221f1311e34a574f66e632a9edf3e2d2bc0d5abf2d880c",
    "john --sample regular-simplex --n 5 --dim 2":
        "03bbeb95652a0e6318272b262d5bcabb2ef9d45dd93526a535057232aa2c607b",
    "john --mode float --sample square --n 12 --dim 3":
        "b9d42c37d25eddb166f36cf1943c05fc4966c9b011e029ce21444d58540388dc",
    "mvs --local --input col.csv":
        "0e99207cb5321c6da15b08954b69bb830cbeddaf2863d05adf159481ca588e33",
    "mvs --local --input same1.csv":
        "67aac2dae63e8594b902c4e6af728b13344a4ee76735620a73672c72ca758d14",
    "dilation --input p.csv --simplex t3.csv":
        "4b579966b960d501c8c718f8accf8d8f5402f6eecd43490d8f8b74b46cf735c1",
    "mvs --local --input mixed.csv":
        "e45fae25eb60a0146bab286e46bf603b362ae07d3f725960c9427240e9b34c36",
}


# Keys that schema 2 removed; "slab" is removed only beside "facet_slacks",
# in the sandwich report, and stays in the local-maximality report.
REMOVED_KEYS = {"dual", "status", "certificate_ok", "certificates_ok"}


def _report(tmp_path, monkeypatch, argv):
    """(exit code, report without timings, points each dilation covers)."""
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cfg = parse_argv(argv)
    code, report = run(cfg)
    del report["timings"]
    n = 0  # the report holds no dilation
    if cfg.command == "counterexample":
        n = 5
    elif cfg.command in ("john", "dilation") and "result" in report:
        n = len(_load_points(cfg))
    return code, report, n


def _digest(report) -> str:
    return hashlib.sha256(dumps_report(report).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_report_is_pinned(tmp_path, monkeypatch, argv, code, digest):
    got_code, report, n = _report(tmp_path, monkeypatch, argv)
    assert (got_code, _digest(report)) == (code, digest)
    assert report["schema_version"] == 2
    assert _digest(report_v1(report, n)) == V1_DIGESTS[" ".join(argv)]


def _keys(obj):
    """Every (key, sibling keys) pair in a JSON tree."""
    if isinstance(obj, list):
        for v in obj:
            yield from _keys(v)
    elif isinstance(obj, dict):
        for key, v in obj.items():
            yield key, set(obj)
            yield from _keys(v)


def test_reports_hold_no_removed_field(tmp_path, monkeypatch):
    one_per_command = {}
    for argv, code, _ in CASES:
        if code == 0:
            one_per_command.setdefault(argv[0], argv)
    one_per_command["render"] = [
        "render", "--sample", "square", "--n", "8", "--dim", "2", "--output", "scene.svg"
    ]
    assert len(one_per_command) == 7
    bindings = 0
    for argv in one_per_command.values():
        code, report, _ = _report(tmp_path, monkeypatch, argv)
        assert code == 0
        for key, siblings in _keys(report):
            assert key not in REMOVED_KEYS, argv
            assert not (key == "slab" and "facet_slacks" in siblings), argv
            bindings += key == "binding"
    # john's two dilations, dilation's one and the counterexample's ten
    assert bindings == 13
