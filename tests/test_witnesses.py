"""The catalogue of certified witnesses: every point set that pins one of
the paper's bounds, or shows how far it is from sharp, declared once in
``WITNESSES`` with its exact result, and one runner for all of them.

An entry is of one of two kinds:

- ``john``: exact ``john`` on X exits 0 (so its slab, containment and
  bounds checks hold) and reports the first maximum-volume simplex
  T = (0, 1, ..., d) with the entry's lambda+ and lambda-.
- ``min-on-X``: over every simplex with its d+1 vertices in X, the least
  lambda+ is the entry's, it exceeds d, and the first simplex in
  ``itertools.combinations`` order to attain it has the entry's vertices.
  Simplices anywhere in conv X are not covered by this claim.

``README.md`` cites entries as ``test_witness[<id>]``, and
``test_readme_cites_only_the_catalogue`` holds each citation to its entry.
"""
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Tuple

import pytest

from helpers import (
    SIX_PLANAR_POINTS,
    UNIMODULAR_BLOCKS,
    standard_simplex,
    tied_maxima,
    unimodular_witness,
)
from simplexcover import DilationSign, PointSet, cli, make_simplex, min_dilations

F = Fraction


class Witness(NamedTuple):
    kind: str  # "john" or "min-on-X"
    points: Sequence[Tuple[Fraction, ...]]
    lam_pos: Fraction
    lam_neg: Optional[int] = None  # "john" only
    vertices: Optional[Tuple[int, ...]] = None  # "min-on-X" only


def _d3_family(a: Fraction):
    """The standard tetrahedron plus (-b, 1, -a), (-a, 1, -b), (1, -a, 1) and
    (1, -b, 1), b = 1 - a: lambda+ = 1 + 4a while the tetrahedron stays a
    maximum, which it is at a = 39/50; the supremum over a is sqrt(17)."""
    b = 1 - a
    return standard_simplex(3) + [
        (-b, F(1), -a), (-a, F(1), -b), (F(1), -a, F(1)), (F(1), -b, F(1))]


def _d_plus_2_points(d: int):
    """For d+2 points, a maximum-volume simplex has lambda+ <= 1 + floor(d/2),
    and the standard simplex plus one point attains it.

    Proof of the bound.  Let T be a maximum-volume simplex of X and p the
    point of X outside T, with barycentric coordinates beta_i(p) in T.
    Replacing vertex i by p scales the volume by |beta_i(p)|, so maximality
    gives |beta_i(p)| <= 1 for every i, and sum_i beta_i(p) = 1.  Then
    lambda+ = 1 + sum of the |beta_i(p)| that are negative.  With k negative
    coordinates, that sum is at most k, and at most d - k, since the
    positive ones, at most d + 1 - k of them and each at most 1, sum to
    1 plus it.  So lambda+ <= 1 + min(k, d - k) <= 1 + floor(d/2).

    Attained by beta = (-1 x floor(d/2), 1 x (floor(d/2) + 1), 0, ...)
    against T = (0, e_1, ..., e_d): every swap keeps the volume or drops it
    to 0, so T is maximal and is the lexicographically first maximum.
    """
    half = d // 2
    beta = [-1] * half + [1] * (half + 1) + [0] * (d - 2 * half)
    return standard_simplex(d) + [tuple(F(b) for b in beta[1:])]


# Seven points of R^3 on which every tetrahedron needs lambda+ > 3 = d.
SEVEN_IN_R3 = [tuple(F(v) for v in row.split(",")) for row in """\
-1.469,1.723,1.08
-2.834,1.192,0.007
1.719,-0.287,-1.507
2.57,0.353,-0.035
-0.369,-1.434,1.381
0.858,-1.687,-0.071
0.155,2.506,-1.203
""".splitlines()]


WITNESSES = {
    "d2-six-points": Witness("john", SIX_PLANAR_POINTS, F(9, 4), 2),
    "d3-a=39/50": Witness("john", _d3_family(F(39, 50)), F(103, 25), 3),
    **{
        f"d{w - 1}-unimodular": Witness("john", unimodular_witness(w), w + 1, w - 1)
        for w in sorted(UNIMODULAR_BLOCKS)
    },
    # The n = d+2 family also attains lambda- = d.
    **{
        f"d{d}-n=d+2": Witness("john", _d_plus_2_points(d), 1 + d // 2, d)
        for d in range(2, 7)
    },
    "d2-six-points-all-triangles": Witness(
        "min-on-X", SIX_PLANAR_POINTS, F(13, 6), vertices=(0, 1, 3)),
    "d3-seven-points-all-tetrahedra": Witness(
        "min-on-X", SEVEN_IN_R3, F(65313830658, 21582302635), vertices=(0, 1, 5, 6)),
}


@pytest.mark.parametrize("name", list(WITNESSES))
def test_witness(name, tmp_path, capsys):
    """Each entry holds: ``john`` entries through exact ``cli.main``,
    ``min-on-X`` entries through one ``min_dilations`` call.

    Setting.  Let T be the standard simplex (0, e_1, ..., e_d) and add points
    whose barycentric rows (b_0, ..., b_d) in T form a matrix P; the point
    is (b_1, ..., b_d).  The barycentric rows of X are then [I; P], and the
    volume of a simplex on d+1 points of X, relative to T's, is |det| of
    their d+1 rows.  Expanding along the rows taken from I leaves, up to
    sign, the square minor of P on the rows taken from P and the columns
    not taken from I, and every square minor of P arises so.  Hence T is a
    maximum-volume simplex iff every square minor of P lies in [-1, 1], and
    then it is the lexicographically first maximum, which ``john`` reports.
    The homothets z + lam T are the sets {beta_i >= m_i for all i} with
    lam = 1 - sum_i m_i, and the homothets z - lam T are {beta_i <= M_i}
    with lam = sum_i M_i - 1.  Since X holds T's vertices,
    lambda+ = 1 - sum_i min(0, min_j P_ji) and
    lambda- = sum_i max(1, max_j P_ji) - 1.  A totally unimodular P with
    {0, ±1} entries, row sums 1 and a -1 in every column therefore gives
    lambda+ = 1 + (d+1) = d+2 and lambda- = d: both bounds of the theorem
    are attained by a maximum-volume simplex.

    Block step.  A square submatrix of diag(P1, P2) that takes r rows and
    c != r columns of P1 is singular, and otherwise its determinant is a
    product of a minor of P1 and one of P2; so diag(P1, P2) is totally
    unimodular, and it keeps row sums 1 and a -1 in every column.  Blocks
    with 5..9 columns sum to every d+1 >= 5, so lambda+ = d+2 is attained
    for every d >= 4.  Sums are not run here: the smallest, d = 9 (n = 20),
    takes seconds in the exact enumeration.
    """
    w = WITNESSES[name]
    d = len(w.points[0])
    if w.kind == "john":
        path = tmp_path / "x.csv"
        path.write_text("".join(",".join(map(str, p)) + "\n" for p in w.points),
                        encoding="utf-8")
        assert cli.main(["john", "--input", str(path)]) == 0
        cover = json.loads(capsys.readouterr().out)["result"]["cover"]
        assert cover["mvs"]["simplex"]["vertex_indices"] == list(range(d + 1))
        assert cover["positive"]["lam"] == str(w.lam_pos)
        assert cover["negative"]["lam"] == str(w.lam_neg)
    else:
        assert w.kind == "min-on-X"
        x = PointSet(d, w.points)
        simplices = [make_simplex([x.points[i] for i in idx], idx)
                     for idx in itertools.combinations(range(len(x)), d + 1)]
        results = min_dilations(x, simplices, DilationSign.POSITIVE)
        best = min(range(len(simplices)), key=lambda k: results[k].lam)
        assert results[best].lam == w.lam_pos > d
        assert simplices[best].vertex_indices == w.vertices


# Per unimodular witness: the maximum-volume subsets among all (d+1)-subsets,
# the least lambda+ over them and the first subset to attain it.
TIES = {
    "d4-unimodular": (162, 252, 3, (0, 1, 2, 8, 9)),
    "d5-unimodular": (105, 210, 3, (0, 1, 4, 5, 7, 8)),
    "d6-unimodular": (153, 330, 4, (0, 1, 3, 4, 5, 6, 7)),
    "d7-unimodular": (217, 495, 4, (0, 1, 2, 4, 5, 6, 9, 11)),
    "d8-unimodular": (225, 715, 5, (0, 1, 2, 4, 5, 6, 7, 8, 9)),
}


@pytest.mark.parametrize("name", list(TIES))
def test_every_tied_maximum_obeys_the_theorem(name):
    """The theorem holds for every maximum-volume simplex, not only the
    first one that ``john`` reports.  On the unimodular witnesses many
    subsets tie at the maximum: all of them have lambda- = d, while lambda+
    runs from the pinned least value up to d+2, which the first attains."""
    ties, total, least, first = TIES[name]
    x = PointSet(len(WITNESSES[name].points[0]), WITNESSES[name].points)
    d = x.dim
    tied = tied_maxima(x)
    assert (len(tied), math.comb(len(x), d + 1)) == (ties, total)
    simplices = [make_simplex([x.points[i] for i in s], s) for s in tied]
    pos = [r.lam for r in min_dilations(x, simplices, DilationSign.POSITIVE)]
    neg = [r.lam for r in min_dilations(x, simplices, DilationSign.NEGATIVE)]
    assert set(neg) == {d}
    assert (min(pos), max(pos), pos[0]) == (least, d + 2, d + 2)
    assert tied[pos.index(least)] == first


def _cited_values(w: Witness):
    """The texts a README passage citing ``w`` must print."""
    if w.kind == "john":
        return [str(w.lam_pos), str(w.lam_neg)]
    return [str(w.lam_pos), "(" + ", ".join(map(str, w.vertices)) + ")"]


# README table columns that end in a cited entry's value, and its field.
VALUE_COLUMNS = {"c(d)": "lam_pos", "lambda-": "lam_neg"}


def _cells(row: str):
    return [cell.strip() for cell in row.strip().strip("|").split("|")]


def test_readme_cites_only_the_catalogue():
    """Every README paragraph or table row that cites ``test_witness[<id>]``
    names an entry of ``WITNESSES`` and prints that entry's values, each as a
    whole word: lambda+ and lambda- for a ``john`` entry, the minimum and its
    vertices for a ``min-on-X`` entry.  In a table row, a cell under a
    ``VALUE_COLUMNS`` header must end in the entry's value."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    passages = []  # (text, {header: cell}) per paragraph or table row
    for paragraph in re.split(r"\n\s*\n", text):
        lines = paragraph.strip().splitlines()
        if lines and lines[0].startswith("|"):
            header = _cells(lines[0])
            passages += [(row, dict(zip(header, _cells(row)))) for row in lines[2:]]
        else:
            passages.append((paragraph, {}))
    cited = 0
    for passage, cells in passages:
        # "test_witness[<id>]" is the citation form, not a citation.
        for name in re.findall(r"test_witness\[(?!<id>)([^\]]+)\]", passage):
            assert name in WITNESSES, f"README cites test_witness[{name}], not in the catalogue"
            w = WITNESSES[name]
            for value in _cited_values(w):
                assert re.search(rf"(?<![\w/]){re.escape(value)}(?![\w/])", passage), (
                    f"README cites test_witness[{name}] without its value {value}: {passage!r}")
            for column, field in VALUE_COLUMNS.items():
                if column in cells:
                    assert cells[column].split()[-1] == str(getattr(w, field)), (name, column)
            cited += 1
    assert cited
