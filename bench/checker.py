"""Independent checks of the program's JSON reports.

Nothing here imports the program.  Every check works from the input the
benchmark generated and from the report text, in exact rational arithmetic:

* T is rebuilt from the input file and the reported ``vertex_indices``.
* With beta_i(x) the barycentric coordinates of x with respect to T,
  m_i = min_x beta_i(x) and M_i = max_x beta_i(x), the minimal dilations
  have the closed forms lambda+ = 1 - sum_i m_i and lambda- = sum_i M_i - 1.
  A reported lambda must equal its closed form, and every point must lie in
  the reported body translate + lambda * (+/-T).
* lambda- <= d, lambda+ <= d + 2, and T is swap-locally maximal, which is
  |beta_i(x)| <= 1 for every point and vertex.
* A feasible counterexample must be ``verified`` with min_lambda > 2, and
  each triangle's lambda must match its closed form.

Float reports are read as ``Fraction(float(s))`` and every comparison is
allowed an error of FLOAT_RTOL * max(1, |lambda|) in barycentric units,
which is relative to the size of T.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm
from typing import Any, Dict, List, Optional, Sequence, Tuple

Point = Tuple[Fraction, ...]

FLOAT_RTOL = Fraction(1, 10**9)
POINT_LABELS = "ABCDE"


def _inverse_and_det(m: List[List[Fraction]]) -> Tuple[List[List[Fraction]], Fraction]:
    """Gauss-Jordan inverse and determinant of a small square Fraction matrix."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    det = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return [], Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        piv = a[k][k]
        det *= piv
        a[k] = [v / piv for v in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                f = a[r][k]
                a[r] = [v - f * w for v, w in zip(a[r], a[k])]
    return [row[n:] for row in a], det


class Frame:
    """Barycentric coordinates of a point set with respect to one simplex.

    Coordinates are scaled to integers by the common denominator of the
    input, so the n x (d+1) matrix of beta * det is computed in integers.
    """

    def __init__(self, points: Sequence[Point], vertex_indices: Sequence[int]):
        self.d = d = len(points[0])
        self.scale = scale = lcm(*(c.denominator for p in points for c in p))
        q = [[int(c * scale) for c in p] for p in points]
        base = q[vertex_indices[0]]
        edges = [q[i] for i in vertex_indices[1:]]
        m = [[Fraction(edges[j][k] - base[k]) for j in range(d)] for k in range(d)]
        inv, det = _inverse_and_det(m)
        if det == 0:
            raise ValueError("the simplex is degenerate")
        sign = 1 if det > 0 else -1
        self.adj = [[sign * int(v * det) for v in row] for row in inv]
        self.det = sign * int(det)  # |det| of the integer edge matrix
        self.base = base
        # num[j][i] = beta_i(x_j) * det, all integers
        self.num = [self._numerators([c - b for c, b in zip(row, base)]) for row in q]

    def _numerators(self, diff: Sequence[Any]) -> List[Any]:
        mu = [sum(a * v for a, v in zip(row, diff)) for row in self.adj]
        return [self.det - sum(mu)] + mu

    def volume(self) -> Fraction:
        return Fraction(self.det, factorial(self.d) * self.scale**self.d)

    def beta(self, p: Sequence[Fraction]) -> List[Fraction]:
        """Barycentric coordinates of an arbitrary rational point."""
        diff = [c * self.scale - b for c, b in zip(p, self.base)]
        return [v / self.det for v in self._numerators(diff)]

    def extremes(self) -> Tuple[List[Fraction], List[Fraction]]:
        """Per-vertex (min over points, max over points) of beta_i."""
        cols = list(zip(*self.num))
        return (
            [Fraction(min(c), self.det) for c in cols],
            [Fraction(max(c), self.det) for c in cols],
        )


def check_dilation(
    frame: Frame, lam: Fraction, translate: Sequence[Fraction], positive: bool, tol: Fraction
) -> List[str]:
    """lam is the closed-form minimum and translate + lam*(+/-T) holds every point."""
    lo, hi = frame.extremes()
    side = "positive" if positive else "negative"
    want = 1 - sum(lo) if positive else sum(hi) - 1
    slack = tol * max(1, abs(lam))
    problems = []
    if abs(lam - want) > slack:
        problems.append(f"{side} lambda {lam} differs from the closed form {want}")
    bt = frame.beta(translate)
    b0 = frame.beta([Fraction(0)] * frame.d)
    for i in range(frame.d + 1):
        if positive and lo[i] < bt[i] - lam * b0[i] - slack:
            problems.append(f"a point escapes the positive body across facet {i}")
        if not positive and hi[i] > bt[i] + lam * b0[i] + slack:
            problems.append(f"a point escapes the negative body across facet {i}")
    return problems


def _envelope_problems(code: int, report: Dict[str, Any], command: str) -> List[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if report.get("command") != command:
        problems.append(f"report is for {report.get('command')!r}, not {command!r}")
    if "error" in report:
        problems.append(f"error: {report['error']}")
    if report.get("violations"):
        problems.append(f"violations: {report['violations']}")
    return problems


def check_john(
    points: Sequence[Point], exact: bool, code: int, report: Dict[str, Any]
) -> Tuple[List[str], Optional[Dict[str, Any]]]:
    """Problems with a ``john`` report, and its exact answer for golden files."""
    problems = _envelope_problems(code, report, "john")
    if problems:
        return problems, None
    read = Fraction if exact else (lambda s: Fraction(float(s)))
    tol = Fraction(0) if exact else FLOAT_RTOL
    cover = report["result"]["cover"]
    simplex = cover["mvs"]["simplex"]
    idx = [int(i) for i in simplex["vertex_indices"]]
    d = len(points[0])
    if len(idx) != d + 1 or len(set(idx)) != d + 1 or not all(0 <= i < len(points) for i in idx):
        return [f"bad vertex_indices {idx}"], None
    if [tuple(read(c) for c in v) for v in simplex["vertices"]] != [points[i] for i in idx]:
        problems.append("reported vertices are not the input points at vertex_indices")
    frame = Frame(points, idx)
    if abs(read(cover["mvs"]["volume"]) - frame.volume()) > tol * frame.volume():
        problems.append(f"volume {cover['mvs']['volume']} is not {frame.volume()}")
    if any(abs(v) > frame.det * (1 + tol) for row in frame.num for v in row):
        problems.append("T is not swap-locally maximal: some |beta| exceeds 1")
    for side, positive, bound in (("negative", False, d), ("positive", True, d + 2)):
        res = cover[side]
        lam = read(res["lam"])
        problems += check_dilation(
            frame, lam, [read(c) for c in res["translate"]], positive, tol
        )
        if lam > bound * (1 + tol):
            problems.append(f"lambda{'+' if positive else '-'} = {lam} exceeds {bound}")
    for flag in ("bounds_ok", "centered_containment_ok"):
        if cover[flag] is not True:
            problems.append(f"{flag} is {cover[flag]}")
    if cover["sandwich"]["ok"] is not True:
        problems.append("sandwich.ok is not true")
    answer = {
        "vertex_indices": idx,
        "volume": cover["mvs"]["volume"],
        "lambda_negative": cover["negative"]["lam"],
        "lambda_positive": cover["positive"]["lam"],
        "translate_negative": cover["negative"]["translate"],
        "translate_positive": cover["positive"]["translate"],
    }
    return problems, answer


def family_points(epsilon: Fraction, delta: Fraction) -> List[Point]:
    """A, B, C, D, E of the five-point family, built from the paper's formulas."""
    s = epsilon + delta
    return [
        (Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (-s, Fraction(1)),
        (s, Fraction(1)),
        (Fraction(0), epsilon - 1),
    ]


def check_counterexample(
    epsilon: Fraction, delta: Fraction, code: int, report: Dict[str, Any]
) -> Tuple[List[str], Optional[Dict[str, Any]]]:
    """Problems with a ``counterexample`` report, and its exact answer."""
    problems = _envelope_problems(code, report, "counterexample")
    if problems:
        return problems, None
    ce = report["result"]["counterexample"]
    feasible = epsilon + delta < Fraction(1, 2)
    if ce["feasible"] is not feasible:
        problems.append(f"feasible is {ce['feasible']}, expected {feasible}")
    points = family_points(epsilon, delta)
    labels = {"".join(c) for c in itertools.combinations(POINT_LABELS, 3)}
    seen = set()
    lambdas = {}
    for tri in ce["triangles"]:
        label = tri["label"]
        seen.add(label)
        idx = [POINT_LABELS.index(ch) for ch in label]
        if list(tri["vertex_indices"]) != idx:
            problems.append(f"{label}: vertex_indices {tri['vertex_indices']}")
            continue
        lam = Fraction(tri["lambda_star"])
        lambdas[label] = tri["lambda_star"]
        if Fraction(tri["dilation"]["lam"]) != lam:
            problems.append(f"{label}: dilation.lam differs from lambda_star")
        frame = Frame(points, idx)
        translate = [Fraction(c) for c in tri["dilation"]["translate"]]
        covered = check_dilation(frame, lam, translate, True, Fraction(0))
        problems += [f"{label}: {p}" for p in covered]
    if seen != labels or len(ce["triangles"]) != len(labels):
        problems.append(f"triangles are {sorted(seen)}, expected all ten")
    min_lambda = Fraction(ce["min_lambda"])
    if lambdas and min_lambda != min(Fraction(v) for v in lambdas.values()):
        problems.append("min_lambda is not the smallest triangle lambda")
    if feasible and (ce["verified"] is not True or not min_lambda > 2):
        problems.append(
            f"feasible family not verified: verified={ce['verified']}, min_lambda={min_lambda}"
        )
    if not feasible and ce["verified"] is not None:
        problems.append("an infeasible family must report verified = null")
    answer = {"feasible": ce["feasible"], "min_lambda": ce["min_lambda"], "lambdas": lambdas}
    return problems, answer
