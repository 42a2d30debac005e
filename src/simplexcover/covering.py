"""Minimal dilation covers of a point set by translates of a simplex.

``min_dilation`` answers, exactly for rational input, the LP

    minimize lambda  over translates t and scale lambda
    subject to a_i . (x_j - t) <= lambda          (all facets i, points j)

where (a_i) are the facet normals of the covering simplex; the NEGATIVE
body is its reflection through the centroid, whose normals are -a_i.  The
LP has a closed form.  Only the largest value M_i = max_j a_i . (x_j - c)
of each facet can bind, and the normals sum to zero, so summing the d+1
binding rows gives

    lambda = (M_0 + ... + M_d) / (d+1),

with every row tight at the unique translate z = -(1/(d+1)) sum_i
(M_i - lambda)(v_i - c), and the dual y = 1/(d+1) on each facet's extreme
row.  In barycentric coordinates beta this reads lambda+ = 1 - sum_i
min_j beta_i and lambda- = sum_i max_j beta_i - 1.  The answer is not
trusted on that algebra alone but re-checked by substitution, as a dual
certificate (``check_certificate``) on the d+1 binding rows, which hold
exactly when every point is covered.  With the weight fixed at 1/(d+1),
the indices of the binding points (``DilationResult.binding``) are the
whole dual: that weight on row i * n + binding[i] of ``dilation_lp``, and
0 on every other row, certifies the full LP too.

Every dilation is read from a slab kernel: the slab values over one
positive denominator D, and the vertices times S and the inverse times D
that they came from, Python ints in exact mode.  ``min_dilations`` reads
the kernels of many simplices as one batch (``slab_kernels``), with one
row maximum over all their facets, and certifies each simplex on its own;
``min_dilation`` is its one-simplex case.
``_frame`` derives the centroid and the normals from a kernel for the
float path and for ``dilation_lp``; the exact path needs neither.  Exact
``min_dilation`` computes the closed form over the one denominator
Q = (d+1)^3 D S and checks its certificate on an integer LP: the binding
rows times D, the variables times Q and the objective (0, ..., 0, (d+1) D),
all scalings positive, so that its point is the closed form's numerators
and its dual is (1, ..., 1) (proof at ``_exact_dilation``).
``check_certificate`` then runs at tolerance 0 on Python ints alone, and
Fractions are built only for the reported values.  Float kernels take the
same steps in floats: the certificate is checked at
``FLOAT_CERTIFICATE_TOL`` and containment at ``default_tol``.

``john_positive_cover`` takes its simplex from ``max_volume_simplex`` and
reads its slab check (``kernel_local_maximality``) and both dilations from
that simplex's one kernel.

The two covering guarantees for a swap-locally-maximal simplex T follow
from the slab property of its facet functionals:

* negative cover: X fits in a translate of d * (-T), so lambda- <= d;
* positive cover: X fits in the centered (d+2)-dilation of T (no translate
  at all), so lambda+ <= d + 2.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import LPInternalError, NumericalBreakdownError, TheoremViolationError
from .geometry import (
    Point,
    PointSet,
    Simplex,
    SlabKernel,
    dilate_about_center,
    dot,
    slab_kernel,
    slab_kernels,
    vec_add,
    vec_scale,
)
from .linprog import LinearProgram, LPSolution, LPStatus, check_certificate
from .mvs import (
    DEFAULT_ENUM_CAP,
    LocalMaximalityReport,
    MvsResult,
    kernel_local_maximality,
    max_volume_simplex,
    verify_local_maximality,
)
from .scalars import FLOAT_CERTIFICATE_TOL, Scalar, ScalarMode, default_tol


class DilationSign(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass
class DilationResult:
    """Minimal covering dilation of a point set by translates of +/-T.

    ``lam`` is the dilation magnitude; the covering body is
    translate + lam * T (POSITIVE) or translate + lam * (-T) (NEGATIVE).
    ``binding[i]`` is the first point with the largest slab value on facet
    i; the dual of ``dilation_lp`` puts weight 1/(d+1) on row
    i * n + binding[i] and 0 on every other row.  ``lp_translate`` is the
    LP's optimal point, the primal half of that certificate.
    """

    lam: Scalar
    sign: DilationSign
    translate: Point  # covering body = translate + lam * (+/-T), T untranslated
    binding: Tuple[int, ...]
    lp_translate: Point  # raw LP point: covering-body centroid minus centroid(t)


@dataclass
class SandwichReport:
    ok: bool
    local_maximality: LocalMaximalityReport
    facet_slacks: List[Tuple[Scalar, Scalar]]  # (inner slack at -d, outer slack at d+2)


@dataclass
class CoverReport:
    mvs: MvsResult
    positive: DilationResult
    negative: DilationResult
    d_plus_2_construction: Simplex
    sandwich: SandwichReport
    centered_containment_ok: bool  # X inside (d+2) T with no translate
    bounds_ok: bool  # lambda+ <= d+2 and lambda- <= d


def _frame(k: SlabKernel) -> Tuple[Point, Tuple[Point, ...]]:
    """The centroid c = sum_i V_i / ((d+1) S) and the normals a_i of the
    kernel's simplex: u_i(x) = 1 - (d+1) R_i . (S x, 1) / D has the
    gradient a_i = -(d+1) S R_i[:d] / D."""
    d, S = len(k.inverse) - 1, k.scale
    center = tuple(k.ratio(sum(v[q] for v in k.scaled_vertices), (d + 1) * S) for q in range(d))
    normals = tuple(
        tuple(k.ratio(-(d + 1) * S * r[q], k.den) for q in range(d)) for r in k.inverse
    )
    return center, normals


def _facet_rows(
    k: SlabKernel, normals: Sequence[Point], s: int, cols: Sequence[Sequence[int]]
) -> LinearProgram:
    """The dilation LP for the body with normals s a_i: facet-major rows
    (-s a_i, -1) . (z, lambda) <= -s u_ij for the points j in ``cols[i]``."""
    d = len(normals) - 1
    rows, rhs = [], []
    for normal, vals, js in zip(normals, k.values, cols):
        rows += [tuple(-s * a for a in normal) + (-1,)] * len(js)
        rhs += [k.scalar(-s * vals[j]) for j in js]
    return LinearProgram(d + 1, (0,) * d + (1,), tuple(rows), tuple(rhs))


def dilation_lp(t: Simplex, x: PointSet, sign: DilationSign) -> LinearProgram:
    """The full (d+1)*n row LP over variables (t_1..t_d, lambda)."""
    s = 1 if sign is DilationSign.POSITIVE else -1
    k = slab_kernel(t, x)
    return _facet_rows(k, _frame(k)[1], s, [range(len(x))] * (t.dim + 1))


def min_dilation(t: Simplex, x: PointSet, sign: DilationSign) -> DilationResult:
    """Minimal lambda and translate covering x by a dilate of +/-t."""
    return min_dilations(x, [t], sign)[0]


def min_dilations(
    x: PointSet, simplices: Sequence[Simplex], sign: DilationSign
) -> List[DilationResult]:
    """``min_dilation`` of each simplex against x, from one batch of slab
    kernels; each result is checked on its own certificate."""
    return _kernel_dilations(slab_kernels(x, simplices), sign)


def _kernel_dilations(ks: Sequence[SlabKernel], sign: DilationSign) -> List[DilationResult]:
    """``min_dilation`` on each kernel already built (all with d+1 rows),
    with the row argmax and row maxima of all their facets in one numpy
    call each."""
    if not ks:
        return []
    # The body's facet i has normal s * a_i, so its slab values are s * u_i.
    u = np.concatenate([k.values for k in ks])
    u = u if sign is DilationSign.POSITIVE else -u
    argmax = np.argmax(u, axis=1)  # first j on ties
    top = u[np.arange(len(u)), argmax].reshape(len(ks), -1).tolist()
    return [
        (_exact_dilation if k.mode is ScalarMode.EXACT else _float_dilation)(k, sign, a, m)
        for k, a, m in zip(ks, argmax.reshape(len(ks), -1).tolist(), top)
    ]


def _float_dilation(
    k: SlabKernel, sign: DilationSign, argmax: List[int], top: List[float]
) -> DilationResult:
    """The closed form in floats, checked at the float tolerance."""
    d = len(top) - 1
    s = 1 if sign is DilationSign.POSITIVE else -1
    lam = k.scalar(sum(top), d + 1)
    w = [k.scalar(m) - lam for m in top]
    c, normals = _frame(k)
    # Offset of the covering body's centroid from c, so the covering body is
    # (c + z) + lam * (body - c); every facet row is tight: s a_i . z = w_i.
    # A float kernel's scale is 1, so its scaled vertices are the vertices.
    z = tuple(
        -s * sum(wi * (v[q] - c[q]) for wi, v in zip(w, k.scaled_vertices)) / (d + 1)
        for q in range(d)
    )

    reduced = _facet_rows(k, normals, s, [[j] for j in argmax])
    certificate = LPSolution(
        status=LPStatus.OPTIMAL, z=z + (lam,), value=lam, dual=(k.ratio(1, d + 1),) * (d + 1)
    )
    if not check_certificate(reduced, certificate, tol=FLOAT_CERTIFICATE_TOL):
        raise NumericalBreakdownError(
            "dilation certificate failed in float mode; rerun in exact mode"
        )

    # Containment of every point: s u_ij / den - s a_i . z <= lam + tol,
    # which holds for all j exactly when it holds for the row maximum.
    tol = default_tol(k.mode)
    for m, normal in zip(top, normals):
        if m > (lam + tol + s * dot(normal, z)) * k.den:
            raise NumericalBreakdownError(
                "optimal dilation fails to contain its own input in float mode; "
                "rerun in exact mode"
            )

    # (c + z) + lam (T - c) = (z + (1 - lam) c) + lam T, and with the
    # reflected body (c + z) - lam (T - c) = (z + (1 + lam) c) + lam (-T).
    offset = vec_scale(c, 1 - lam if sign is DilationSign.POSITIVE else 1 + lam)
    return DilationResult(
        lam=lam,
        sign=sign,
        translate=vec_add(z, offset),
        binding=tuple(argmax),
        lp_translate=z,
    )


def _exact_dilation(
    k: SlabKernel, sign: DilationSign, argmax: List[int], top: List[int]
) -> DilationResult:
    """The closed form and its checks on an exact kernel's integers.

    Write n1 = d+1, S = ``k.scale``, V_i = ``k.scaled_vertices[i]`` = S v_i,
    R_i = ``k.inverse[i]`` and D = ``k.den`` > 0, so that a_i = -n1 S
    R_i[:d] / D, and let top_i = D M_i be the integer row maxima, with sum
    T.  Over the one denominator Q = n1^3 D S the closed form reads

        lambda = T / (n1 D) = Ln / Q,      Ln = T n1^2 S,
        z_q = Zn_q / Q,      Zn_q = -s sum_i (n1 top_i - T) (n1 V_i[q] - sum_k V_k[q]).

    The reduced LP P has rows (-s a_i, -1) . (z, lambda) <= -top_i / D,
    objective lambda, point (z, lambda) and dual 1/n1 on every row.  Scale
    each row by D > 0 and substitute (z, lambda) = (z', lambda') / Q with
    Q > 0: the rows become (s n1 S R_i[:d], -D) . (z', lambda') <= -top_i Q,
    with the same feasible points times Q.  Scale the objective lambda' / Q
    by n1 D Q > 0 to (0, ..., 0, n1 D); the optimal points stay the same.
    In this integer LP the point is (Zn, Ln), the value n1 D Ln and the dual
    (1, ..., 1).  Each condition ``check_certificate`` tests on it is the
    same condition on P at the closed form's Fractions, multiplied by a
    positive integer: each row's slack by D Q, the dual by n1, y . G + c by
    n1 D, and both c . z - value and y . h + value by n1 D Q.  So it holds
    at tolerance 0 exactly when P's certificate holds.

    The rows are the containment proof: row i, top_i Q <= D Ln - s n1 S
    (R_i[:d] . Zn), is top_i / D <= lambda + s a_i . z for facet i's largest
    slab value, times D Q > 0.  Fractions are built only for the reported
    lam, translate and lp_translate.
    """
    n1, S, D = len(top), k.scale, k.den
    d = n1 - 1
    s = 1 if sign is DilationSign.POSITIVE else -1
    T = sum(top)
    Q, Ln = n1**3 * D * S, T * n1 * n1 * S
    sums = [sum(v[q] for v in k.scaled_vertices) for q in range(d)]
    w = [n1 * m - T for m in top]
    Zn = tuple(
        -s * sum(wi * (n1 * v[q] - sums[q]) for wi, v in zip(w, k.scaled_vertices))
        for q in range(d)
    )

    reduced = LinearProgram(
        d + 1,
        (0,) * d + (n1 * D,),
        tuple(tuple(s * n1 * S * r for r in row[:d]) + (-D,) for row in k.inverse),
        tuple(-m * Q for m in top),
    )
    certificate = LPSolution(
        status=LPStatus.OPTIMAL, z=Zn + (Ln,), value=n1 * D * Ln, dual=(1,) * n1
    )
    if not check_certificate(reduced, certificate, tol=0):
        raise LPInternalError("closed-form dilation failed its dual certificate")

    # translate = z + (1 - s lam) c, with c = sums / (n1 S).
    return DilationResult(
        lam=Fraction(T, n1 * D),
        sign=sign,
        translate=tuple(
            Fraction(n1 * S * zq + (Q - s * Ln) * cq, n1 * S * Q) for zq, cq in zip(Zn, sums)
        ),
        binding=tuple(argmax),
        lp_translate=tuple(Fraction(zq, Q) for zq in Zn),
    )


def john_positive_cover(
    x: PointSet, *, enum_cap: int = DEFAULT_ENUM_CAP, seed: int = 0
) -> CoverReport:
    """Full covering report: constructive (d+2)-dilation plus both LP optima.

    Exact input is checked at tolerance 0, float input at ``DEFAULT_FLOAT_TOL``.
    A local-search simplex that fails a check is reported as it is.  An
    enumerated simplex that fails one raises ``TheoremViolationError`` for
    exact input.  Float input is enumerated exactly on the binary rationals
    it denotes, so there the float slab kernel's rounding is to blame, and
    it raises ``NumericalBreakdownError``.
    """
    d = x.dim
    tol = default_tol(x.mode)
    m = max_volume_simplex(x, enum_cap=enum_cap, seed=seed)
    t = m.simplex
    k = slab_kernel(t, x)
    sandwich = _sandwich(kernel_local_maximality(k, t, x, tol), d)
    centered_ok = all(hi <= d + 2 + tol for _, hi in sandwich.local_maximality.slab)
    negative = _kernel_dilations([k], DilationSign.NEGATIVE)[0]
    positive = _kernel_dilations([k], DilationSign.POSITIVE)[0]
    bounds_ok = negative.lam <= d + tol and positive.lam <= d + 2 + tol
    if m.method == "exact" and not (sandwich.ok and centered_ok and bounds_ok):
        checks = f"sandwich={sandwich.ok} centered={centered_ok} bounds={bounds_ok}"
        if x.mode is ScalarMode.FLOAT:
            raise NumericalBreakdownError(
                f"covering check failed in float mode: {checks}; rerun in exact mode"
            )
        raise TheoremViolationError(
            f"covering guarantee failed for an exactly maximal simplex: {checks}"
        )
    return CoverReport(
        mvs=m,
        positive=positive,
        negative=negative,
        d_plus_2_construction=dilate_about_center(t, d + 2),
        sandwich=sandwich,
        centered_containment_ok=centered_ok,
        bounds_ok=bounds_ok,
    )


def verify_sandwich(t: Simplex, x: PointSet, tol: Scalar = 0) -> SandwichReport:
    """Slab slacks of x against the inner (-d) and outer (d+2) bounds of t.

    When t is not swap-locally maximal the report carries the offending
    swap instead of asserting anything about the covering chain.
    """
    return _sandwich(verify_local_maximality(t, x, tol=tol), t.dim)


def _sandwich(lm: LocalMaximalityReport, d: int) -> SandwichReport:
    slacks = [(lo - (-d), (d + 2) - hi) for lo, hi in lm.slab]
    return SandwichReport(ok=lm.ok, local_maximality=lm, facet_slacks=slacks)
