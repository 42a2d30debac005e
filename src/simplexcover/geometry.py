"""Simplices, halfspace forms, and the slab computations built on them.

Conventions used throughout:

* A point is a plain tuple of scalars (Fraction/int in exact mode, float
  otherwise).  All operations preserve the scalar family of their inputs.
* The halfspace form of a d-simplex is *centered*: the centroid sits at the
  origin of the local frame and every facet offset is normalized to 1, so

      x in S  <=>  a_i . (x - center) <= 1   for all d+1 facets i.

  Facet i is the one opposite vertex i, hence a_i . (v_i - center) = -d.
* ``dilate_about_center(S, lam)`` scales about the centroid; lam < 0 gives
  the point-reflected copy scaled by |lam|.
* In barycentric coordinates beta (with respect to S) the same functional
  is a_i . (x - center) = 1 - (d+1) beta_i(x).  ``slab_kernels`` evaluates
  it for a point set against many simplices, from one inversion of each
  homogenized vertex matrix and one dot product over the stacked inverses,
  and keeps each inverse rather than the center and normals; the slab,
  maximality and dilation computations all read it.
  ``halfspace_form`` derives the same normals by solves; only tests call it.
* A simplex's volume and its degeneracy come from one integer determinant
  of its vertices cleared to a common denominator (``linalg.simplex_det``)
  in both modes; a float volume is that exact volume rounded once.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    InputFormatError,
    NumericalBreakdownError,
    SingularMatrixError,
)
from .scalars import Scalar, ScalarMode, infer_mode

Point = Tuple[Scalar, ...]


def vec_sub(a: Sequence[Scalar], b: Sequence[Scalar]) -> Point:
    return tuple(x - y for x, y in zip(a, b))


def vec_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> Point:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(a: Sequence[Scalar], s: Scalar) -> Point:
    return tuple(s * x for x in a)


def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    return sum(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class PointSet:
    """A finite list of points in a fixed ambient dimension.

    Its numeric form is derived once, read-only and not a dataclass field:
    ``mode`` (``infer_mode`` of the coordinates), ``array`` ((n, d) float64,
    or object-dtype ints equal to the points times ``scale``) and ``scale``
    (the common denominator; 1 in float mode).

    ``points`` may also be an (n, d) float64 array: a copy of it becomes
    ``array``, and its rows, as Python floats, the points."""

    dim: int
    points: Tuple[Point, ...]

    def __init__(self, dim: int, points: Sequence[Sequence[Scalar]]):
        if dim < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
        array = mode = None
        if isinstance(points, np.ndarray) and points.dtype == np.float64:
            array, mode, points = points.copy(), ScalarMode.FLOAT, points.tolist()
        pts = tuple(map(tuple, points))
        if not pts:
            raise ValueError("a PointSet needs at least one point")
        if set(map(len, pts)) != {dim}:
            _raise_first_bad_point(pts, dim)
        if mode is None:
            mode = infer_mode(itertools.chain.from_iterable(pts))
        if mode is ScalarMode.EXACT:
            ints, scale = linalg.clear_denominators(pts)
            array = np.array(ints, dtype=object).reshape(len(pts), dim)
        else:
            scale = 1
            if array is None:
                try:
                    array = np.array(pts, dtype=np.float64)
                except OverflowError:  # a huge exact coordinate
                    _raise_first_bad_point(pts, dim)
                    raise
            if not np.isfinite(array).all():
                _raise_first_bad_point(pts, dim)
        array.flags.writeable = False
        # Frozen: the fields and the numeric form are set once, here.
        self.__dict__.update(dim=dim, points=pts, mode=mode, array=array, scale=scale)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _raise_first_bad_point(pts: Tuple[Point, ...], dim: int) -> None:
    """Raise for the first point, in order, with a wrong length or a
    non-finite float coordinate; return if there is none.

    Only floats can be non-finite; float() of a huge Fraction would overflow,
    so exact coordinates are not converted to test them.
    """
    for k, p in enumerate(pts):
        if len(p) != dim:
            raise DimensionMismatchError(
                f"point {k} has {len(p)} coordinates, expected {dim}"
            )
        if any(isinstance(v, float) and not math.isfinite(v) for v in p):
            raise InputFormatError(f"point {k} has a non-finite coordinate: {p}")


@dataclass(frozen=True)
class Simplex:
    """d+1 vertices spanning (possibly degenerately) R^d.

    ``vertex_indices`` records, when known, which members of an originating
    PointSet the vertices are.  Use ``make_simplex`` for the validated path;
    the raw constructor admits degenerate vertex lists so their volume (zero)
    can still be queried.
    """

    dim: int
    vertices: Tuple[Point, ...]
    vertex_indices: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {self.dim}")
        verts = tuple(tuple(v) for v in self.vertices)
        if len(verts) != self.dim + 1:
            raise DimensionMismatchError(
                f"a {self.dim}-simplex needs {self.dim + 1} vertices, got {len(verts)}"
            )
        for k, v in enumerate(verts):
            if len(v) != self.dim:
                raise DimensionMismatchError(
                    f"vertex {k} has {len(v)} coordinates, expected {self.dim}"
                )
        object.__setattr__(self, "vertices", verts)
        if self.vertex_indices is not None:
            idx = tuple(int(i) for i in self.vertex_indices)
            if len(idx) != self.dim + 1:
                raise DimensionMismatchError("vertex_indices length must be dim + 1")
            object.__setattr__(self, "vertex_indices", idx)


def make_simplex(
    vertices: Sequence[Sequence[Scalar]],
    vertex_indices: Optional[Sequence[int]] = None,
) -> Simplex:
    """Validated constructor: rejects non-finite and affinely dependent
    vertex lists.

    The test is exact, so a float simplex whose volume rounds to 0.0 passes.
    """
    dim = len(vertices[0]) if len(vertices) else 0
    s = Simplex(dim, tuple(tuple(v) for v in vertices),
                tuple(vertex_indices) if vertex_indices is not None else None)
    if any(isinstance(v, float) and not math.isfinite(v) for p in s.vertices for v in p):
        raise InputFormatError(f"a vertex has a non-finite coordinate: {s.vertices}")
    if _scaled_det(s)[0] == 0:
        raise DegenerateSimplexError("vertices are affinely dependent (volume 0)")
    return s


def _scaled_det(s: Simplex) -> Tuple[int, int, ScalarMode]:
    """d! scale^d vol(s) as an integer, the scale that clears s's vertices,
    and their mode.  Float mode reads each coordinate as ``float(v)``, the
    binary rational the slab kernel reads."""
    mode = infer_mode(v for p in s.vertices for v in p)
    verts = s.vertices if mode is ScalarMode.EXACT else [[float(v) for v in p] for p in s.vertices]
    ints, scale = linalg.clear_denominators(verts)
    return linalg.simplex_det(ints), scale, mode


def simplex_volume(s: Simplex) -> Scalar:
    """Unsigned d-volume, |det(v_1-v_0, ..., v_d-v_0)| / d!, from one integer
    determinant in both modes.

    Exact inputs give an exact Fraction; float inputs the exact volume of the
    binary rationals they denote, rounded once (``inf`` past the float range).
    Degenerate vertex lists give 0.
    """
    value, scale, mode = _scaled_det(s)
    den = factorial(s.dim) * scale ** s.dim
    if mode is ScalarMode.EXACT:
        return Fraction(value, den)
    try:
        return value / den
    except OverflowError:
        return math.inf


def centroid(s: Simplex) -> Point:
    d = s.dim
    n = d + 1
    sums = [sum(v[k] for v in s.vertices) for k in range(d)]
    return tuple(Fraction(1, n) * x for x in sums)


@dataclass(frozen=True)
class HalfspaceForm:
    """Centered unit-offset facet description of a non-degenerate simplex.

    normals[i] is the outward functional of the facet opposite vertex i, with
    a_i . (v_j - center) = 1 for j != i and a_i . (v_i - center) = -dim.
    Offsets are kept explicitly even though normalization makes them all 1.
    """

    dim: int
    center: Point
    normals: Tuple[Point, ...]
    offsets: Tuple[Scalar, ...]

    def value(self, i: int, x: Sequence[Scalar]) -> Scalar:
        """The functional a_i . (x - center)."""
        return dot(self.normals[i], vec_sub(x, self.center))


def halfspace_form(s: Simplex) -> HalfspaceForm:
    """Compute the centered unit-offset form; raises on degenerate input."""
    d = s.dim
    c = centroid(s)
    centered = [vec_sub(v, c) for v in s.vertices]
    exact = all(isinstance(x, (int, Fraction)) for v in centered for x in v)
    one: Scalar = Fraction(1) if exact else 1.0
    normals: List[Point] = []
    for i in range(d + 1):
        rows = [centered[j] for j in range(d + 1) if j != i]
        try:
            a = linalg.solve(rows, [one] * d)
        except SingularMatrixError:
            raise DegenerateSimplexError(
                f"cannot form facet {i}: vertices are affinely dependent"
            ) from None
        normals.append(tuple(a))
    return HalfspaceForm(dim=d, center=c, normals=tuple(normals), offsets=(one,) * (d + 1))


def dilate_about_center(s: Simplex, lam: Scalar) -> Simplex:
    """Scale about the centroid by lam (lam < 0 reflects through the centroid)."""
    if lam == 0:
        raise ValueError("dilation factor must be nonzero")
    c = centroid(s)
    verts = [vec_add(c, vec_scale(vec_sub(v, c), lam)) for v in s.vertices]
    return Simplex(s.dim, tuple(verts), None)


@dataclass(frozen=True)
class SlabKernel:
    """Slab values of a point set against a simplex, over one denominator.

    ``values`` is a (d+1, n) numpy array, one row per facet and one column
    per point: ``values[i, j] / den`` is u_ij = a_i . (x_j - center) = 1 -
    (d+1) beta_i(x_j), with a_i as in ``HalfspaceForm``.  ``scaled_vertices``
    is the vertices times ``scale``, and ``inverse`` / ``den`` inverts the
    homogenized vertex matrix (column i is (scaled_vertices[i], 1)), so
    ``values[i, j] = den - (d+1) (inverse[i] . (scale x_j, 1))`` and ``den``
    > 0.  Exact input (``mode``) makes all of them Python ints, ``values``
    of object dtype, with ``scale`` positive.  Float input makes them
    floats, ``values`` float64, with ``scale`` 1.0, so the scaled vertices
    are the vertices.  ``scalar`` and ``slab`` return plain Python scalars,
    so no numpy scalar reaches a report.
    """

    mode: ScalarMode
    den: Scalar
    values: np.ndarray
    scale: Scalar
    scaled_vertices: Tuple[Tuple[Scalar, ...], ...]
    inverse: Tuple[Tuple[Scalar, ...], ...]

    def ratio(self, num: Scalar, den: Scalar) -> Scalar:
        """num / den in this kernel's scalar family."""
        if self.mode is ScalarMode.EXACT:
            return Fraction(int(num), int(den))
        return float(num) / float(den)

    def scalar(self, num: Scalar, scale: Scalar = 1) -> Scalar:
        """The value of a numerator over ``scale * den``."""
        return self.ratio(num, scale * self.den)

    def slab(self) -> List[Tuple[Scalar, Scalar]]:
        """Per-facet (min, max) of u over the points."""
        lows, highs = self.values.min(axis=1).tolist(), self.values.max(axis=1).tolist()
        return [(self.scalar(lo), self.scalar(hi)) for lo, hi in zip(lows, highs)]


def slab_kernel(t: Simplex, x: PointSet) -> SlabKernel:
    """The slab kernel of x against the one simplex t."""
    return slab_kernels(x, [t])[0]


def slab_kernels(x: PointSet, simplices: Sequence[Simplex]) -> List[SlabKernel]:
    """Every slab value a_i . (x_j - c) of x against each simplex, from one
    inversion per simplex and one dot product over all of them.

    With A the homogenized vertex matrix (column i is (v_i, 1)), beta(x) =
    A^-1 (x, 1).  Exact input is scaled to integers first, each simplex by
    the lcm of x's common denominator and its own vertices', so A^-1 = N / D
    with integers N and D = |det A|, and every slab value is an integer over
    D.  The batch is exact when every coordinate of x and of every simplex
    is an int or Fraction, float otherwise.  Kernel k then depends on
    simplices[k] alone, and the first simplex that fails raises what it
    raises alone; the kernels' ``values`` are views into one array.
    """
    d = x.dim
    mode = x.mode if x.mode is ScalarMode.FLOAT else infer_mode(
        v for t in simplices for p in t.vertices for v in p)
    if mode is ScalarMode.EXACT:
        pts, one = x.array, 1
    else:
        # int / int rounds correctly, like float(Fraction); x.scale is 1 for floats.
        pts, one = np.asarray(x.array / x.scale, dtype=np.float64), 1.0
    fields, rows = [], []
    for t in simplices:
        if t.dim != d:
            raise DimensionMismatchError(f"point set is {d}-dimensional, simplex is {t.dim}")
        if mode is ScalarMode.EXACT:
            verts, vscale = linalg.clear_denominators(t.vertices)
            scale = math.lcm(x.scale, vscale)
            verts = [[v * (scale // vscale) for v in p] for p in verts]
        else:
            verts, scale = [[float(v) for v in p] for p in t.vertices], 1.0
        homog = [[v[q] for v in verts] for q in range(d)] + [[one] * (d + 1)]
        try:
            inv, det = linalg.scaled_inverse(homog)
        except SingularMatrixError:
            if mode is ScalarMode.FLOAT and _scaled_det(t)[0] != 0:
                raise NumericalBreakdownError(
                    "the float slab kernel rounded a non-degenerate simplex to a "
                    "singular one; rerun in exact mode"
                ) from None
            raise DegenerateSimplexError("vertices are affinely dependent (volume 0)") from None
        fields.append((det, scale, tuple(map(tuple, verts)), tuple(map(tuple, inv))))
        # x's exact array is x times x.scale, so the factor scale / x.scale
        # moves onto the inverse's coordinate columns.
        f = scale // x.scale if mode is ScalarMode.EXACT else 1
        rows += inv if f == 1 else [[f * c for c in r[:d]] + [r[d]] for r in inv]
    # Row i of inv dotted with (x, 1) is det * beta_i(x); the slab value is
    # det * (1 - (d+1) beta_i(x)).  The dot product is summed left to right,
    # r[0] x[0] + ... + r[d-1] x[d-1] + r[d], one coordinate at a time, so
    # a float value is bitwise the one the scalar formula gives.
    cols = np.array(rows, dtype=pts.dtype).reshape(-1, d + 1).T[:, :, None]
    dots = linalg.combine(cols[:d], pts.T) + cols[d]
    dens = np.array([det for det, *_ in fields], dtype=pts.dtype)[:, None, None]
    values = dens - (d + 1) * dots.reshape(len(fields), d + 1, len(x))
    # Each entry of fields is (den, scale, scaled_vertices, inverse).
    return [SlabKernel(mode, det, v, *rest) for v, (det, *rest) in zip(values, fields)]
