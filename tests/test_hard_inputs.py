"""Every check that applies to a hard input, run on the rows of ``HARD``:
the subset walk against Bareiss, and exact and float ``john`` through
``cli.main``.  The pruned pair scan meets the rows in
``tests/test_local_search.py``."""
import itertools
import json
import warnings
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from hard_inputs import ALL, EXACT, FIRST, HARD, OK, SPANS_NOTHING, TIES, points
from simplexcover import linalg, mvs
from simplexcover.cli import main
from simplexcover.errors import DegeneratePointSetError
from simplexcover.mvs import _best_subset_python, mvs_exact


@pytest.fixture
def walk_spy(monkeypatch):
    """Whether the walk took its rounding filter (e > 0), and the subsets it
    rescored with Python ints."""
    seen = {"filtered": False, "rescored": []}
    bound, first_max = mvs._rounding_bound, mvs._first_max

    def rescore(P, combos):
        seen["rescored"].append(list(combos))
        return first_max(P, seen["rescored"][-1])

    monkeypatch.setattr(mvs, "_rounding_bound", lambda d: seen.update(filtered=True) or bound(d))
    monkeypatch.setattr(mvs, "_first_max", rescore)
    return seen


@lru_cache(maxsize=None)
def _first_maximum(name: str):
    """The scale that clears the row's denominators, and the first maximum."""
    x = points(name)
    ints, scale = linalg.clear_denominators(x.points)
    return scale, _best_subset_python(ints, len(x), x.dim)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", [name for name, row in HARD.items() if row.walk])
def test_walk(name, chunk, walk_spy):
    # A float volume is the exact one rounded once (inf past the float range).
    row, x = HARD[name], points(name)
    scale, (combo, val) = _first_maximum(name)
    walk_spy["rescored"].clear()
    if val == 0:
        with pytest.raises(DegeneratePointSetError, match="do not affinely span"):
            mvs_exact(x)
    else:
        res = mvs_exact(x)
        volume = Fraction(val, factorial(x.dim) * scale**x.dim)
        assert res.simplex.vertex_indices == combo
        if x.mode is not EXACT:
            volume = float(volume) if volume < 2**1024 else float("inf")
        assert res.volume == volume
        assert row.fact is None or row.fact(x, res)
    (rescored,) = walk_spy["rescored"]
    assert val == 0 or combo in rescored
    every = list(itertools.combinations(range(len(x)), x.dim + 1))
    kind = FIRST if len(rescored) == 1 else ALL if rescored == every else TIES
    assert (walk_spy["filtered"], kind) == row.walk


def _run(tmp_path, capsys, argv: str, text: str):
    """Exit code and report of ``cli.main`` on ``argv --input`` the text."""
    (tmp_path / "points.csv").write_text(text, encoding="utf-8")
    code = main([*argv.split(), "--input", str(tmp_path / "points.csv")])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", list(HARD))
def test_exact_john(name, tmp_path, capsys):
    # Floats are read as the binary rationals they denote.
    row = HARD[name]
    text = row.text() if row.mode is EXACT else "".join(
        ",".join(str(Fraction(float(v))) for v in line.split(",")) + "\n"
        for line in row.text().splitlines())
    code, rep = _run(tmp_path, capsys, "john", text)
    if row.john != OK:
        assert (code, rep["error_kind"], rep["error"]) == (1, "input-error", row.john)
        return
    d = text.partition("\n")[0].count(",") + 1
    cover = rep["result"]["cover"]
    assert code == 0 and rep["violations"] == []
    assert Fraction(cover["negative"]["lam"]) <= d
    assert Fraction(cover["positive"]["lam"]) <= d + 2


@pytest.mark.parametrize("name", [name for name, row in HARD.items() if row.float_john is not None])
def test_float_john(name, tmp_path, capsys):
    # Float mode answers, breaks down or defers, and never exits 2.  An
    # overflow on the way may precede exit 1, never an answer.
    row = HARD[name]
    for argv, want in (("john", row.float_john), ("mvs --local", row.local)):
        if want is not None:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, rep = _run(tmp_path, capsys, f"{argv} --mode float", row.text())
            assert (code, rep.get("error", OK)) == ((0, OK) if want == OK else (1, want)), argv
            assert code == 1 or not caught, argv
            # Float mode calls points non-spanning only where exact john does.
            assert rep.get("error") != SPANS_NOTHING or row.john == SPANS_NOTHING, argv
