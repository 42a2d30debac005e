"""Small dense linear algebra that works for Fraction and float alike.

Dimensions here are tiny (the ambient dimension, at most a handful), so the
implementations favor exactness and clarity over asymptotics.  Every
simplex determinant is an integer one: ``clear_denominators`` scales ints,
Fractions and floats to integer rows, and ``simplex_det`` evaluates them by
Bareiss elimination.  Only ``solve`` still does Fraction elimination, with
first-nonzero pivoting; its float inputs, like ``scaled_inverse``'s, use
partial pivoting by magnitude.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .errors import SingularMatrixError
from .scalars import Scalar, is_exact_value


def _pivot_row(col: List[Scalar], start: int, exact: bool) -> int:
    """Index of the pivot row at or after ``start``, or -1 if the column is zero."""
    if exact:
        for r in range(start, len(col)):
            if col[r] != 0:
                return r
        return -1
    best, best_abs = -1, 0.0
    for r in range(start, len(col)):
        a = abs(col[r])
        if a > best_abs:
            best, best_abs = r, a
    return best if best_abs > 0.0 else -1


def solve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> List[Scalar]:
    """Solve A x = b for square A.  Raises SingularMatrixError when rank-deficient."""
    n = len(rows)
    if len(rhs) != n:
        raise ValueError("rhs length must match matrix size")
    m = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    for r in m:
        if len(r) != n + 1:
            raise ValueError("solve requires a square matrix")
    exact = all(is_exact_value(x) for r in m for x in r)
    if exact:
        m = [[Fraction(x) for x in r] for r in m]
    for k in range(n):
        p = _pivot_row([m[r][k] for r in range(n)], k, exact)
        if p < 0:
            raise SingularMatrixError(f"singular system (rank < {n})")
        if p != k:
            m[k], m[p] = m[p], m[k]
        pivot = m[k][k]
        for r in range(n):
            if r == k:
                continue
            factor = m[r][k] / pivot
            if factor == 0:
                continue
            row, prow = m[r], m[k]
            for c in range(k, n + 1):
                row[c] = row[c] - factor * prow[c]
    return [m[k][n] / m[k][k] for k in range(n)]


def scaled_inverse(rows: Sequence[Sequence[Scalar]]) -> Tuple[List[List[Scalar]], Scalar]:
    """Fraction-free inverse of a square matrix: (N, D) with N / D = A^-1.

    Gauss-Jordan in Bareiss form (Montante's method): every update is a 2x2
    determinant divided by the previous pivot, and for integer input that
    division is exact, so N and D stay integers and D = |det(A)| > 0.  Float
    input runs the same steps with true division and magnitude pivoting.
    Raises SingularMatrixError when A is rank-deficient.
    """
    n = len(rows)
    exact = all(isinstance(x, int) for r in rows for x in r)
    div = operator.floordiv if exact else operator.truediv
    one: Scalar = 1 if exact else 1.0
    m = [list(r) + [one if c == k else one * 0 for c in range(n)] for k, r in enumerate(rows)]
    for r in m:
        if len(r) != 2 * n:
            raise ValueError("scaled_inverse requires a square matrix")
    prev = one
    for k in range(n):
        p = _pivot_row([m[r][k] for r in range(n)], k, exact)
        if p < 0:
            raise SingularMatrixError(f"singular matrix (rank < {n})")
        if p != k:
            m[k], m[p] = m[p], m[k]
        prow = m[k]
        pivot = prow[k]
        for r in range(n):
            if r == k:
                continue
            row = m[r]
            f = row[k]
            for c in range(2 * n):
                row[c] = div(pivot * row[c] - f * prow[c], prev)
        prev = pivot
    if prev < 0:  # the last pivot is -det(A); negation is exact in both modes
        return [[-v for v in r[n:]] for r in m], -prev
    return [r[n:] for r in m], prev


def clear_denominators(points: Sequence[Sequence[Scalar]]) -> Tuple[List[List[int]], int]:
    """Integer rows and the positive scale s with row * s = ints, for ints,
    Fractions and floats alike (a float is the binary rational it denotes)."""
    ratios = [[x.as_integer_ratio() for x in p] for p in points]
    scale = lcm(*(q for r in ratios for _, q in r))
    return [[a * (scale // q) for a, q in r] for r in ratios], scale


def int_det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    for r in m:
        if len(r) != n:
            raise ValueError("int_det_bareiss requires a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def simplex_det(points: Sequence[Sequence[int]]) -> int:
    """|det(p_1 - p_0, ..., p_d - p_0)| of d+1 integer points, d! times the
    volume of their simplex."""
    base = points[0]
    return abs(int_det_bareiss([[a - b for a, b in zip(p, base)] for p in points[1:]]))


def combine(coeffs: Sequence, terms: Sequence):
    """coeffs[0] * terms[0] + coeffs[1] * terms[1] + ..., summed left to right.

    Works on scalars and numpy arrays alike (elementwise); the fixed order
    makes a float result reproducible by the same loop over scalars.
    """
    acc = coeffs[0] * terms[0]
    for c, t in zip(coeffs[1:], terms[1:]):
        acc = acc + c * t
    return acc

