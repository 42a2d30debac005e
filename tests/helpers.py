"""Shared generators and brute-force oracles for the test suite.

The oracles deliberately avoid the code paths they are checking:
``det`` is plain Gaussian elimination (Fraction or pivoted float), the
oracle for Bareiss, ``scaled_inverse`` and ``solve``; ``fraction_volume``
is a simplex's volume by ``det``, and ``brute_mvs`` walks subsets with it;
``lp_vertex_minimum`` enumerates basic points of boxed LPs by solving
square systems.  None of them touches the simplex tableau, Bareiss or the
float64 subset walk.  ``reference_local_search`` is the scalar swap local
search that the array version in ``mvs`` must reproduce.
``halfspace_dilation_lp`` builds the full dilation LP from
``halfspace_form``'s normals, derived without the slab kernel.  ``contains``,
``barycentric_coordinates`` and ``reflect_vertex`` compute membership,
coordinates and reflections one point at a time, independently of the
slab kernel.  ``fraction_parse_scalar`` reads every text exactly through
``Fraction`` and rounds once; float-mode ``parse_scalar`` must give the
same value or error.  ``json_oracle`` is the ``json`` module's text of a
report, which ``dumps_report`` must reproduce byte for byte.
``dense_dual`` expands a dilation's ``binding`` indices into the dual of
the full LP, and ``report_v1`` maps a schema-2 report back to schema 1.
``fraction_min_dilation`` is the dilation closed form in Fraction
arithmetic, the oracle for exact ``min_dilation`` on the kernel's integers.
``reference_slab_kernel`` builds one simplex's kernel on its own, the
oracle for each kernel of the batched ``slab_kernels``.
``reference_farthest_pair`` scans every pair of rows, the oracle for the
pruned pair scan.  ``reference_parse_points_csv`` reads a CSV text through
``csv.reader`` and ``parse_scalar`` one field at a time, the oracle for the
batched float reader; it numbers each record by the physical line it
starts on, and a quoted field keeps its line breaks.
``reference_parse_points_json`` reads a JSON point file one entry at a
time through ``parse_scalar``, as the JSON reader did before its rows
took the CSV field parser.  ``reference_to_jsonable`` is the report
converter as it was before conversion went through one table of
converters per type: an exact-type fast path in front of an
``isinstance`` chain.  ``unimodular_witness`` builds point sets whose first
maximum-volume simplex needs lambda+ = d+2, from ``UNIMODULAR_BLOCKS`` and
their ``block_sum``, on the ``standard_simplex``.
"""
from __future__ import annotations

import csv
import dataclasses
import enum
import itertools
import json
import math
import random
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from simplexcover import linalg
from simplexcover.covering import DilationResult, DilationSign, _facet_rows
from simplexcover.errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    InputFormatError,
    LPInternalError,
    NumericalBreakdownError,
    SingularMatrixError,
)
from simplexcover.geometry import (
    HalfspaceForm,
    Point,
    PointSet,
    Simplex,
    SlabKernel,
    centroid,
    dilate_about_center,
    dot,
    halfspace_form,
    simplex_volume,
    slab_kernel,
    vec_add,
    vec_scale,
    vec_sub,
)
from simplexcover.linalg import _pivot_row
from simplexcover.linalg import solve as linear_solve
from simplexcover.linprog import (
    LinearProgram,
    LPSolution,
    LPStatus,
    check_certificate,
)
from simplexcover.scalars import (
    FLOAT_CERTIFICATE_TOL,
    Scalar,
    ScalarMode,
    default_tol,
    infer_mode,
    is_exact_value,
    parse_scalar,
    scalar_to_str,
)
from simplexcover.serialization import to_jsonable


def rational_points(n: int, d: int, seed: int, denom: int = 64) -> PointSet:
    rng = random.Random(seed)
    return PointSet(
        d,
        tuple(
            tuple(Fraction(rng.randint(-denom, denom), denom) for _ in range(d))
            for _ in range(n)
        ),
    )


def float_points(n: int, d: int, seed: int) -> PointSet:
    rng = random.Random(seed)
    return PointSet(
        d, tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(d)) for _ in range(n))
    )


def revisiting_float_inputs() -> dict:
    """Float inputs on which the swap search's kernel loses precision.

    ``huge`` is two points near 1e200 on a line; ``coplanar`` is seven points
    of R^4 on the hyperplane x4 = 0.3 (x1 + x2 + x3).  On both, the largest
    |u - 1| sits at a vertex's own column, so the float search would swap a
    vertex for itself forever.
    """
    rng = random.Random(0)
    coplanar = []
    for _ in range(7):
        p = [rng.uniform(-1, 1) for _ in range(3)]
        coplanar.append((*p, 0.3 * (p[0] + p[1] + p[2])))
    return {
        "huge": PointSet(1, [(-7.3e199,), (6.9e199,)]),
        "coplanar": PointSet(4, coplanar),
    }


# Eight collinear points 0.7 k (1, 2, 3, 4) of R^4.  Rounding gives further
# seed vertices positive volume scores until the Gram matrix of the seed's
# basis is singular.
FLOAT_LINE = PointSet(4, [tuple(0.7 * k * c for c in (1, 2, 3, 4)) for k in range(1, 9)])


# Six points of the plane whose first maximum-area triangle (0, 1, 2) needs
# lambda+ = 9/4, and on which every triangle needs lambda+ >= 13/6 > 2.
SIX_PLANAR_POINTS = tuple(
    (Fraction(x), Fraction(y))
    for x, y in ((0, 0), (1, 0), (0, 1), ("1/2", 1), ("-1/12", "5/6"), ("2/3", "-2/3"))
)

# Totally unimodular {0, ±1} blocks with row sums 1 and a -1 in every
# column, keyed by their column count d + 1.  An exhaustive search found
# none with 3 or 4 columns.
UNIMODULAR_BLOCKS = {
    5: ((-1, 0, 0, 1, 1), (0, -1, 1, 0, 1), (0, 1, -1, 1, 0), (1, 0, 1, -1, 0),
        (1, 1, 0, 0, -1)),
    6: ((-1, -1, 0, 1, 1, 1), (0, 0, -1, 0, 1, 1), (1, 1, 0, -1, 0, 0),
        (1, 1, 1, 0, -1, -1)),
    7: ((-1, -1, -1, 1, 1, 1, 1), (1, 1, 1, -1, -1, 0, 0), (1, 1, 1, -1, 0, -1, 0),
        (1, 1, 1, 0, -1, 0, -1)),
    8: ((-1, -1, -1, 0, 1, 1, 1, 1), (-1, -1, 0, -1, 1, 1, 1, 1),
        (1, 1, 0, 1, -1, -1, 0, 0), (1, 1, 1, 0, 0, 0, -1, -1)),
    9: ((-1, -1, -1, -1, 1, 1, 1, 1, 1), (1, 1, 1, 1, -1, -1, -1, 0, 0),
        (1, 1, 1, 1, -1, -1, 0, -1, 0), (1, 1, 1, 1, -1, 0, -1, 0, -1)),
}


def block_sum(*blocks: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """The block-diagonal matrix diag(blocks[0], blocks[1], ...), as rows."""
    width = sum(len(b[0]) for b in blocks)
    rows, left = [], 0
    for b in blocks:
        rows += [(0,) * left + tuple(r) + (0,) * (width - left - len(r)) for r in b]
        left += len(b[0])
    return tuple(rows)


def standard_simplex(d: int) -> List[Tuple[Fraction, ...]]:
    """The vertices 0, e_1, ..., e_d of the standard simplex in R^d."""
    return [tuple(Fraction(int(q == i)) for q in range(d)) for i in range(-1, d)]


def unimodular_witness(*widths: int) -> List[Tuple[Fraction, ...]]:
    """The standard simplex (0, e_1, ..., e_d), then one point per row of
    the block sum of ``UNIMODULAR_BLOCKS[w]`` for w in ``widths``, where
    d + 1 = sum(widths).  A row (b_0, ..., b_d) is the point (b_1, ..., b_d),
    whose barycentric coordinates in the standard simplex are the row.
    """
    rows = block_sum(*(UNIMODULAR_BLOCKS[w] for w in widths))
    return standard_simplex(len(rows[0]) - 1) + [tuple(Fraction(b) for b in r[1:]) for r in rows]


# Float inputs on which rounding alone used to fail a check, as CSV text.
# ``flat15`` and ``flat69`` are five planar points within ~1e-16 of a line:
# the float slab kernel's rounding fails float ``john``'s containment check
# and bounds check, a numerical breakdown.  ``line5`` is five nearly
# collinear points whose float64 determinants chose a simplex that is not
# maximal; enumerated exactly on its binary rationals, float ``mvs`` gets
# exact mode's (0, 1, 2).  ``dup7`` is seven points of R^4, four of them
# equal, so they do not span; a float copy of a chosen vertex won the local
# search seed's score by rounding.  Exact mode passes the first three and
# rejects ``dup7`` as not spanning.
A7 = "-0.8344507149397993,-0.2764828784644533,0.18490558275547886,-0.33755496442423527\n"
ROUNDING_CSV = {
    "flat15": (
        "0.04263379776465315,0.012790139329384248\n"
        "-0.9276471114454758,-0.2782941334336363\n"
        "0.8260276911607303,0.24780830734821466\n"
        "-0.522100046025505,-0.15663001380766417\n"
        "-0.8901035654620639,-0.2670310696386203\n"
    ),
    "flat69": (
        "0.6027836079435767,0.1808350823830745\n"
        "-0.8666486351918601,-0.2599945905575591\n"
        "-0.31076505291408263,-0.09322951587422695\n"
        "0.8397546099815116,0.2519263829944516\n"
        "0.7461402533658015,0.22384207600974101\n"
    ),
    "line5": (
        "-0.6572563854866372,-0.07957649402077338\n"
        "-0.6675022826533001,-0.09297480668652147\n"
        "0.5176214987409304,1.4567829853785854\n"
        "-0.08485086157189672,0.6689444072005052\n"
        "-0.10942879789360656,0.6368044325198526\n"
    ),
    "dup7": (
        A7
        + "-0.9993267331250031,-0.38303786252115746,0.3032310402309326,-0.699974682816463\n"
        + A7
        + "-0.7312404559023609,-0.5122084033505905,-0.08510753824687534,-0.7239361243726059\n"
        + A7
        + "0.01289751452298904,-0.22084843524787878,0.2213432586058699,0.4947927508368488\n"
        + A7
    ),
}


def traced_local_search(monkeypatch, x: PointSet, seed: int = 0):
    """``mvs_local_search(x, seed)`` and the volume of every simplex it visits.

    Each step of the search reads one ``slab_kernel`` of the current simplex;
    the volumes are recorded by wrapping that call.
    """
    import simplexcover.mvs as mvs

    volumes = []

    def recording_kernel(t, points):
        volumes.append(simplex_volume(t))
        return slab_kernel(t, points)

    with monkeypatch.context() as m:
        m.setattr(mvs, "slab_kernel", recording_kernel)
        res = mvs.mvs_local_search(x, seed=seed)
    return res, volumes


def det(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant of a square matrix, exact for rational entries."""
    n = len(rows)
    m = [list(r) for r in rows]
    for r in m:
        if len(r) != n:
            raise ValueError("det requires a square matrix")
    if n == 0:
        return 1
    exact = all(is_exact_value(x) for r in m for x in r)
    if exact:
        # int entries would hit true division below; promote them
        m = [[Fraction(x) for x in r] for r in m]
    result = Fraction(1) if exact else 1.0
    for k in range(n):
        p = _pivot_row([m[r][k] for r in range(n)], k, exact)
        if p < 0:
            return result * 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            result = -result
        pivot = m[k][k]
        result = result * pivot
        for r in range(k + 1, n):
            factor = m[r][k] / pivot
            if factor == 0:
                continue
            row, prow = m[r], m[k]
            for c in range(k + 1, n):
                row[c] = row[c] - factor * prow[c]
    return result


def fraction_volume(vertices: Sequence[Sequence[Scalar]]) -> Fraction:
    """|det(v_1 - v_0, ..., v_d - v_0)| / d! of exact vertices, by ``det``."""
    rows = [vec_sub(v, vertices[0]) for v in vertices[1:]]
    return abs(det(rows)) / math.factorial(len(rows))


def brute_mvs(x: PointSet) -> Tuple[Fraction, Tuple[int, ...]]:
    """Best (volume, index tuple) by direct subset enumeration."""
    best_vol = None
    best_idx = None
    for idx in itertools.combinations(range(len(x)), x.dim + 1):
        vol = fraction_volume([x.points[i] for i in idx])
        if best_vol is None or vol > best_vol:
            best_vol, best_idx = vol, idx
    return best_vol, best_idx


def halfspace_dilation_lp(t: Simplex, x: PointSet, sign: DilationSign) -> LinearProgram:
    """The full (d+1)*n row LP over variables (t_1..t_d, lambda)."""
    body = t if sign is DilationSign.POSITIVE else dilate_about_center(t, -1)
    h = halfspace_form(body)
    d = t.dim
    rows = []
    rhs = []
    for a in h.normals:
        for p in x.points:
            rows.append(tuple(-c for c in a) + (-1,))
            rhs.append(-sum(c * (pv - cv) for c, pv, cv in zip(a, p, h.center)))
    objective = (0,) * d + (1,)
    return LinearProgram(d + 1, objective, tuple(rows), tuple(rhs))


def fraction_min_dilation(t: Simplex, x: PointSet, sign: DilationSign) -> DilationResult:
    """``min_dilation``'s closed form in the kernel's scalars: Fractions in
    exact mode.  Exact ``min_dilation`` runs on the kernel's integers and
    must give the same result.  The slab values come from the kernel; the
    centroid, normals and vertices come from ``t`` itself."""
    k = slab_kernel(t, x)
    h = halfspace_form(t)
    d = t.dim
    s = 1 if sign is DilationSign.POSITIVE else -1
    # The body's facet i has normal s * a_i, so its slab values are s * u_i.
    u = k.values if s == 1 else -k.values
    argmax = np.argmax(u, axis=1).tolist()  # first j on ties
    top = u[np.arange(d + 1), argmax].tolist()
    lam = k.scalar(sum(top), d + 1)
    w = [k.scalar(m) - lam for m in top]
    c = centroid(t)
    # Offset of the covering body's centroid from c, so the covering body is
    # (c + z) + lam * (body - c); every facet row is tight: s a_i . z = w_i.
    z = tuple(
        -s * sum(wi * (v[q] - c[q]) for wi, v in zip(w, t.vertices)) / (d + 1)
        for q in range(d)
    )

    reduced = _facet_rows(k, h.normals, s, [[j] for j in argmax])
    certificate = LPSolution(
        status=LPStatus.OPTIMAL, z=z + (lam,), value=lam, dual=(k.ratio(1, d + 1),) * (d + 1)
    )
    if k.mode is ScalarMode.EXACT:
        if not check_certificate(reduced, certificate, tol=0):
            raise LPInternalError("closed-form dilation failed its dual certificate")
    elif not check_certificate(reduced, certificate, tol=FLOAT_CERTIFICATE_TOL):
        raise NumericalBreakdownError(
            "dilation certificate failed in float mode; rerun in exact mode"
        )

    # Containment of every point: s u_ij / den - s a_i . z <= lam + tol,
    # which holds for all j exactly when it holds for the row maximum.
    tol = default_tol(k.mode)
    for m, normal in zip(top, h.normals):
        if m > (lam + tol + s * dot(normal, z)) * k.den:
            if k.mode is ScalarMode.FLOAT:
                raise NumericalBreakdownError(
                    "optimal dilation fails to contain its own input in float mode; "
                    "rerun in exact mode"
                )
            raise LPInternalError("optimal dilation fails to contain its own input")

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


def reference_slab_kernel(t: Simplex, x: PointSet) -> SlabKernel:
    """One simplex's slab kernel on its own, as ``slab_kernel`` built it
    before kernels were batched: the oracle for every kernel of
    ``slab_kernels``, field by field and error by error."""
    if x.dim != t.dim:
        raise DimensionMismatchError(f"point set is {x.dim}-dimensional, simplex is {t.dim}")
    d = t.dim
    mode = infer_mode(v for p in t.vertices for v in p) if x.mode is ScalarMode.EXACT else x.mode
    if mode is ScalarMode.EXACT:
        verts, vscale = linalg.clear_denominators(t.vertices)
        scale, one = math.lcm(x.scale, vscale), 1
        verts = [[v * (scale // vscale) for v in p] for p in verts]
        pts = x.array if scale == x.scale else x.array * (scale // x.scale)
    else:
        verts, scale, one = [[float(v) for v in p] for p in t.vertices], 1.0, 1.0
        pts = np.asarray(x.array / x.scale, dtype=np.float64)
    homog = [[v[q] for v in verts] for q in range(d)] + [[one] * (d + 1)]
    try:
        inv, det = linalg.scaled_inverse(homog)
    except SingularMatrixError:
        if mode is ScalarMode.FLOAT and linalg.simplex_det(
            linalg.clear_denominators(verts)[0]
        ) != 0:
            raise NumericalBreakdownError(
                "the float slab kernel rounded a non-degenerate simplex to a "
                "singular one; rerun in exact mode"
            ) from None
        raise DegenerateSimplexError("vertices are affinely dependent (volume 0)") from None
    cols = np.array(inv, dtype=pts.dtype).T[:, :, None]
    dots = linalg.combine(cols[:d], pts.T)
    return SlabKernel(
        mode=mode,
        den=det,
        values=det - (d + 1) * (dots + cols[d]),
        scale=scale,
        scaled_vertices=tuple(map(tuple, verts)),
        inverse=tuple(map(tuple, inv)),
    )


def dense_dual(res: DilationResult, n: int) -> Tuple[Scalar, ...]:
    """The dual of the full (d+1)*n row LP that ``res.binding`` stands for:
    1/(d+1) on row i*n + binding[i], 0 elsewhere, in the mode of ``res``."""
    k = len(res.binding)
    zero, share = (Fraction(0), Fraction(1, k)) if is_exact_value(res.lam) else (0.0, 1 / k)
    dual = [zero] * (k * n)
    for i, j in enumerate(res.binding):
        dual[i * n + j] = share
    return tuple(dual)


def report_v1(report: dict, n: int) -> dict:
    """The schema-1 form of a schema-2 JSON report whose dilations cover n points.

    Each ``binding`` becomes the dense ``dual`` with ``status: "optimal"``,
    ``sandwich.slab`` copies ``sandwich.local_maximality.slab``, and the
    certificate flags, which schema 1 always set, come back as true.
    ``report`` is left as it is.
    """
    exact = report["config"]["mode"] == "exact"

    def walk(obj):
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        if not isinstance(obj, dict):
            return obj
        out = {key: walk(v) for key, v in obj.items()}
        if "binding" in out:  # a dilation
            binding = out.pop("binding")
            share = scalar_to_str(Fraction(1, len(binding)) if exact else 1 / len(binding))
            dual = ["0"] * (len(binding) * n)
            for i, j in enumerate(binding):
                dual[i * n + j] = share
            out.update(dual=dual, status="optimal")
        if "facet_slacks" in out:  # a sandwich report
            out["slab"] = out["local_maximality"]["slab"]
        if "lambda_star" in out:  # one triangle of the counterexample
            out["certificate_ok"] = True
        if "triangles" in out:  # the counterexample
            out["certificates_ok"] = True
        return out

    v1 = walk(report)
    v1["schema_version"] = 1
    return v1


def lp_vertex_minimum(lp: LinearProgram) -> Optional[Fraction]:
    """Exact minimum over the vertices of {G z <= h}, or None when empty.

    Sound only for LPs whose feasible region is bounded (our generators
    always include box rows), since then the optimum sits at a vertex.
    """
    m, K = lp.num_vars, len(lp.rows)
    best = None
    for idx in itertools.combinations(range(K), m):
        rows = [[Fraction(g) for g in lp.rows[k]] for k in idx]
        rhs = [Fraction(lp.rhs[k]) for k in idx]
        try:
            v = linear_solve(rows, rhs)
        except SingularMatrixError:
            continue
        feasible = all(
            sum(Fraction(g) * vi for g, vi in zip(lp.rows[k], v)) <= Fraction(lp.rhs[k])
            for k in range(K)
        )
        if not feasible:
            continue
        val = sum(Fraction(c) * vi for c, vi in zip(lp.objective, v))
        if best is None or val < best:
            best = val
    return best


def random_boxed_lp(rng: random.Random, exact: bool = True) -> LinearProgram:
    """Random LP whose rows always include a bounding box (so: never unbounded)."""
    m = rng.randint(1, 4)
    box = rng.randint(2, 6)
    rows: List[tuple] = []
    rhs: List = []
    for i in range(m):
        e = tuple(1 if j == i else 0 for j in range(m))
        rows.append(e)
        rhs.append(box)
        rows.append(tuple(-v for v in e))
        rhs.append(box)
    for _ in range(rng.randint(0, 12 - 2 * m)):
        rows.append(tuple(rng.randint(-4, 4) for _ in range(m)))
        rhs.append(rng.randint(-6, 6))
    objective = tuple(rng.randint(-5, 5) for _ in range(m))
    conv = Fraction if exact else float
    return LinearProgram(
        m,
        tuple(conv(c) for c in objective),
        tuple(tuple(conv(g) for g in r) for r in rows),
        tuple(conv(h) for h in rhs),
    )


def reflect_vertex(s: Simplex, i: int) -> Point:
    """Reflection of vertex i through the opposite facet along the centroid line.

    In centered coordinates the image is -((d+2)/d) * (v_i - center).
    """
    d = s.dim
    _require_nondegenerate(s)
    c = centroid(s)
    u = vec_sub(s.vertices[i], c)
    return vec_add(c, vec_scale(u, -Fraction(d + 2, d)))


def _require_nondegenerate(s: Simplex) -> None:
    if simplex_volume(s) == 0:
        raise DegenerateSimplexError("operation requires a non-degenerate simplex")


def contains(h: HalfspaceForm, x: Sequence[Scalar], tol: Scalar = 0) -> bool:
    """Membership test a_i . (x - center) <= b_i + tol for every facet.

    Use tol = 0 in exact mode.
    """
    if len(x) != h.dim:
        raise DimensionMismatchError(f"point has {len(x)} coordinates, expected {h.dim}")
    diff = vec_sub(x, h.center)
    return all(dot(a, diff) <= b + tol for a, b in zip(h.normals, h.offsets))


def barycentric_coordinates(s: Simplex, x: Sequence[Scalar]) -> List[Scalar]:
    """Barycentric coordinates of x with respect to s (they sum to 1)."""
    _require_nondegenerate(s)
    d = s.dim
    cols = [vec_sub(v, s.vertices[0]) for v in s.vertices[1:]]
    rows = [[cols[j][k] for j in range(d)] for k in range(d)]
    mu = linalg.solve(rows, list(vec_sub(x, s.vertices[0])))
    return [1 - sum(mu)] + list(mu)


def point_in_simplex(s: Simplex, p) -> bool:
    """Exact membership via barycentric coordinates (no halfspace code)."""
    return all(b >= 0 for b in barycentric_coordinates(s, p))


def _dot(a: Sequence, b: Sequence):
    # An explicit left-to-right loop: the builtin sum compensates float
    # rounding on Python >= 3.12, which the array code does not.
    acc = 0
    for u, v in zip(a, b):
        acc = acc + u * v
    return acc


def reference_farthest_pair(P: np.ndarray) -> Tuple[int, int]:
    """The first pair a < b of rows, in row order, at the largest squared
    distance, each row against all later rows, no row pruned.

    Squared differences are summed coordinate by coordinate, left to right,
    as ``mvs._farthest_pair`` sums them.  Float rows reaching 2^500 are
    first scaled by a power of two so that no square overflows; any such
    scaling that takes no coordinate below 2^-1022 is exact and so orders
    the pairs alike.
    """
    if P.dtype != object and np.abs(P).max() >= 2.0**500:
        P = P * 2.0 ** (400 - math.frexp(np.abs(P).max())[1])
    n, d = P.shape
    best_d2, best = -1, (0, 1)
    for a in range(n - 1):
        d2 = 0
        for q in range(d):
            diff = P[a, q] - P[a + 1:, q]
            d2 = d2 + diff * diff
        b = int(np.argmax(d2))
        if d2[b] > best_d2:
            best_d2, best = d2[b], (a, a + 1 + b)
    return best


def reference_local_search(x: PointSet, seed: int = 0):
    """Scalar swap local search: (vertex_indices, swap_count, volumes).

    The same algorithm as ``mvs.mvs_local_search``, one pair, candidate and
    (facet, point) at a time: the farthest pair over the seeded shuffled
    order (first pair on ties), volume-greedy extension by one Gram
    determinant per candidate (first candidate on ties), then
    best-improvement swaps scanned facet-major with ``halfspace_form``.
    ``volumes`` holds the volume of every simplex visited.
    """
    n, d = len(x), x.dim
    pts = x.points
    order = list(range(n))
    random.Random(seed).shuffle(order)
    best_pair, best_d2 = None, None
    for a in range(n):
        for b in range(a + 1, n):
            i, j = order[a], order[b]
            diff = vec_sub(pts[i], pts[j])
            d2 = _dot(diff, diff)
            if best_d2 is None or d2 > best_d2:
                best_d2, best_pair = d2, (i, j)
    chosen = list(best_pair)
    basis = [vec_sub(pts[chosen[1]], pts[chosen[0]])]
    while len(chosen) < d + 1:
        best_j, best_g = None, 0
        for j in order:
            if j in chosen:
                continue
            cand = basis + [vec_sub(pts[j], pts[chosen[0]])]
            g = det([[_dot(u, v) for v in cand] for u in cand])
            if g > best_g:
                best_g, best_j = g, j
        chosen.append(best_j)
        basis.append(vec_sub(pts[best_j], pts[chosen[0]]))

    exact = infer_mode(v for p in pts for v in p) is ScalarMode.EXACT
    threshold = d + 1 if exact else (d + 1) * (1.0 + 1e-12)
    volumes = []
    swaps = 0
    while True:
        simplex = Simplex(d, tuple(pts[i] for i in chosen), tuple(chosen))
        volumes.append(simplex_volume(simplex))
        h = halfspace_form(simplex)
        best_gain, best_swap = threshold, None
        for i in range(d + 1):
            for j in range(n):
                val = _dot(h.normals[i], vec_sub(pts[j], h.center))
                gain = val - 1 if val >= 1 else 1 - val
                if gain > best_gain:
                    best_gain, best_swap = gain, (i, j)
        if best_swap is None:
            return tuple(chosen), swaps, volumes
        chosen[best_swap[0]] = best_swap[1]
        swaps += 1


def fraction_parse_scalar(text: str, mode: ScalarMode) -> Scalar:
    """``parse_scalar`` with every text read exactly by ``Fraction`` first,
    and a text with an underscore rejected as Python 3.10's ``Fraction``
    rejects it."""
    text = text.strip()
    try:
        if "_" in text:
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse scalar {text!r}: {exc}") from None
    if mode is ScalarMode.EXACT:
        return value
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _csv_records(text: str):
    """``csv.reader``'s records of ``text``, each with the physical line it
    starts on (a quoted field may span lines), a ``csv.Error`` raised as an
    input error on the line it stopped at.  The reader gets each line with
    its line end, so a quoted field that spans lines keeps the break."""
    reader = csv.reader(text.splitlines(keepends=True))
    start = 1
    try:
        for fields in reader:
            yield start, fields
            start = reader.line_num + 1
    except csv.Error as exc:
        raise InputFormatError(f"line {reader.line_num}: {exc}") from exc


def reference_parse_points_csv(text: str, mode: ScalarMode) -> List[Tuple[Scalar, ...]]:
    """The points of a CSV text read one field at a time: ``csv.reader``,
    then ``parse_scalar`` on every field, then the first point with a
    non-finite coordinate rejected, with the messages of ``parse_points_csv``
    and ``PointSet``."""
    rows: List[Tuple[Scalar, ...]] = []
    dim = None
    for lineno, fields in _csv_records(text):
        fields = [f.strip() for f in fields]
        if not fields or fields == [""]:
            continue
        if dim is None:
            dim = len(fields)
        elif len(fields) != dim:
            raise InputFormatError(
                f"line {lineno}: expected {dim} coordinates, got {len(fields)}"
            )
        try:
            rows.append(tuple(parse_scalar(f, mode) for f in fields))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise InputFormatError("no points found")
    for k, p in enumerate(rows):
        if any(isinstance(v, float) and not math.isfinite(v) for v in p):
            raise InputFormatError(f"point {k} has a non-finite coordinate: {p}")
    return rows


def reference_parse_points_json(text: str, mode: ScalarMode) -> PointSet:
    """{"dim": d, "points": [[...], ...]}; entries may be numbers or strings."""
    try:
        data = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise InputFormatError('expected an object with "dim" and "points"')
    dim, points = data["dim"], data["points"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputFormatError('"dim" must be a positive integer')
    if not isinstance(points, list):
        raise InputFormatError('"points" must be a list of points')
    pts = []
    for i, row in enumerate(points):
        if not isinstance(row, list) or len(row) != dim:
            raise InputFormatError(f"point {i}: expected {dim} coordinates")
        coords = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise InputFormatError(f"point {i}: unsupported entry {v!r}")
            try:
                coords.append(parse_scalar(str(v), mode))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError(f"point {i}: {exc}") from exc
        pts.append(tuple(coords))
    if not pts:
        raise InputFormatError("no points found")
    return PointSet(dim, tuple(pts))


# Field names of each dataclass type that ``reference_to_jsonable`` has converted.
_REFERENCE_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}


def reference_to_jsonable(obj: Any) -> Any:
    """Recursively convert results (dataclasses, scalars, enums) to JSON types."""
    # The exact types that fill the package's reports first, because
    # isinstance against Fraction's abstract base class is slow; everything
    # else (numpy scalars, enums, subclasses) takes the chain below.
    cls = type(obj)
    if cls is str or cls is int or cls is bool or obj is None:
        return obj
    if cls is float or cls is Fraction:
        return scalar_to_str(obj)
    if cls is list or cls is tuple:
        return [reference_to_jsonable(v) for v in obj]
    if cls is dict:
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    names = _REFERENCE_DATACLASS_FIELDS.get(cls)
    if names is not None:
        return {name: reference_to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (float, Fraction)):
        return scalar_to_str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = tuple(f.name for f in dataclasses.fields(obj))
        _REFERENCE_DATACLASS_FIELDS[cls] = names
        return {name: reference_to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {str(k): reference_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_oracle(report) -> str:
    """The ``json`` module's text of ``report``, as ``dumps_report`` must write it."""
    return json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"
