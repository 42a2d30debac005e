"""Deterministic samplers for standard bodies, used to build finite inputs.

All results hold for finite point sets; a compact body is handled by
sampling it.  Every sampler is driven by ``random.Random(seed)`` so a
(body, n, d, seed) tuple always reproduces the same points.

Exact mode draws coordinates from the rational grid with denominator 64,
so downstream arithmetic stays in small fractions.  ``regular-simplex``
has exact rational vertices only in dimensions 1 and 3; other dimensions
are float-only.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Tuple

from .errors import InputFormatError
from .geometry import Point, PointSet
from .scalars import Scalar, ScalarMode, total

BODIES = ("square", "disk", "regular-simplex", "annulus")

_GRID = 64
_MAX_REJECT = 100_000


def _grid_coord(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-_GRID, _GRID), _GRID)


def _cube_point(rng: random.Random, d: int, exact: bool) -> Point:
    if exact:
        return tuple(_grid_coord(rng) for _ in range(d))
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(d))


def _reject_sample(rng: random.Random, d: int, exact: bool, body: str) -> Point:
    """A point of the disk (|x| <= 1) or annulus (1/2 <= |x| <= 1), drawn from
    the cube by rejection."""
    lo = 0 if body == "disk" else (Fraction(1, 4) if exact else 0.25)
    for _ in range(_MAX_REJECT):
        p = _cube_point(rng, d, exact)
        if lo <= _norm_sq(p) <= 1:
            return p
    # The ball fills about (pi e / 2d)^(d/2) / sqrt(pi d) of the cube: 2e-14 at d = 30.
    raise InputFormatError(
        f"rejection sampling found no point of the {body} in dimension {d} "
        f"in {_MAX_REJECT} draws from the cube"
    )


def _norm_sq(p: Point) -> Scalar:
    return total(c * c for c in p)


def _regular_simplex_vertices(d: int, exact: bool) -> Tuple[Point, ...]:
    if d == 1:
        one = Fraction(1) if exact else 1.0
        return ((-one,), (one,))
    if d == 3 and exact:
        # Alternate corners of the cube {-1,1}^3: all edges have length 2*sqrt(2).
        f = Fraction(1)
        return (
            (f, f, f),
            (f, -f, -f),
            (-f, f, -f),
            (-f, -f, f),
        )
    if exact:
        raise InputFormatError(
            f"regular-simplex has no exact rational realization in dimension {d}"
        )
    # Float construction: e_1..e_{d+1} in R^{d+1}, centered, expressed in an
    # orthonormal basis of the hyperplane sum(x) = 0.
    c = 1.0 / (d + 1)
    basis: List[List[float]] = []
    for i in range(d):
        v = [0.0] * (d + 1)
        v[i] = 1.0
        v[d] = -1.0
        for b in basis:
            coef = total(vi * bi for vi, bi in zip(v, b))
            v = [vi - coef * bi for vi, bi in zip(v, b)]
        nrm = math.sqrt(total(vi * vi for vi in v))
        basis.append([vi / nrm for vi in v])
    verts = []
    for i in range(d + 1):
        e = [-c] * (d + 1)
        e[i] += 1.0
        verts.append(tuple(total(ei * bi for ei, bi in zip(e, b)) for b in basis))
    return tuple(verts)


def sample_body(
    body: str,
    n: int,
    d: int,
    seed: int,
    mode: ScalarMode = ScalarMode.FLOAT,
) -> PointSet:
    """n deterministic pseudo-random points of the named body in R^d.

    square: the cube [-1, 1]^d.  disk: the unit ball.  annulus (d = 2
    only): 1/2 <= |x| <= 1.  regular-simplex: the d+1 exact vertices
    first, then interior points by positive rational or float convex
    combinations.
    """
    if body not in BODIES:
        raise InputFormatError(f"unknown body {body!r}; expected one of {BODIES}")
    if d < 1:
        raise InputFormatError("dimension must be at least 1")
    if n < d + 1:
        raise InputFormatError(f"need at least d+1 = {d + 1} points, got {n}")
    exact = mode is ScalarMode.EXACT
    rng = random.Random(seed)

    if body == "square":
        pts = [_cube_point(rng, d, exact) for _ in range(n)]
    elif body in ("disk", "annulus"):
        if body == "annulus" and d != 2:
            raise InputFormatError("annulus sampling is only defined for d = 2")
        pts = [_reject_sample(rng, d, exact, body) for _ in range(n)]
    else:  # regular-simplex
        verts = _regular_simplex_vertices(d, exact)
        pts = list(verts)
        for _ in range(n - len(verts)):
            w = [rng.randint(1, _GRID) for _ in verts]
            tot = sum(w)
            if exact:
                coef: List[Scalar] = [Fraction(wi, tot) for wi in w]
            else:
                coef = [wi / tot for wi in w]
            pts.append(
                tuple(
                    total(ci * v[k] for ci, v in zip(coef, verts))
                    for k in range(d)
                )
            )
    return PointSet(d, tuple(pts))
