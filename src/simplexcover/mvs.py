"""Maximum-volume simplex (MVS) search over a finite point set.

Two entry points:

* ``mvs_exact``: exhaustive enumeration of all C(n, d+1) vertex subsets.
  Rational input is scaled to integers once, and whenever a conservative
  a-priori bound proves that every intermediate of a d x d minor expansion
  fits in int64, the subsets are evaluated in vectorized numpy batches with
  *exact* integer arithmetic.  Otherwise (or for d > 6) a pure-Python
  big-integer path takes over, so arbitrary rational input stays exact.
  Ties are broken toward the lexicographically smallest sorted index tuple.

* ``mvs_local_search``: greedy seeding (farthest pair, then volume-greedy
  extension) followed by best-improvement single-vertex swaps.  The result
  is swap-locally maximal: no single vertex replacement by a point of X
  increases the volume (beyond relative 1e-12 in float mode).

Swap-local maximality is exactly the slab property checked by
``verify_local_maximality``: replacing vertex i by x scales the volume by
|a_i . (x - c) - 1| / (d + 1), so maximality of a simplex with unit facet
offsets is equivalent to -d <= a_i . (x - c) <= d + 2 for all facets i and
points x.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import DegeneratePointSetError, EnumerationCapError
from .geometry import (
    PointSet,
    Simplex,
    halfspace_form,
    require_spanning,
    simplex_volume,
    slab_kernel,
    vec_sub,
)
from .scalars import Scalar, ScalarMode, infer_mode

DEFAULT_ENUM_CAP = 2_000_000
_CHUNK = 65_536
_INT64_SAFE = 1 << 62


@dataclass
class MvsResult:
    simplex: Simplex
    volume: Scalar
    method: str  # "exact" or "local-search"
    swap_count: int = 0


@dataclass
class LocalMaximalityReport:
    ok: bool
    worst_facet: Optional[int]
    worst_point: Optional[int]
    excess: Scalar  # largest slab overshoot; <= tol when ok
    slab: List[Tuple[Scalar, Scalar]]


# ---------------------------------------------------------------------------
# batched determinants
# ---------------------------------------------------------------------------

def _minor(D: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """k x k determinant (k <= 3) of given rows/cols for each matrix in D."""
    k = len(rows)
    if k == 1:
        return D[:, rows[0], cols[0]]
    if k == 2:
        (r0, r1), (c0, c1) = rows, cols
        return D[:, r0, c0] * D[:, r1, c1] - D[:, r0, c1] * D[:, r1, c0]
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    return (
        D[:, r0, c0] * (D[:, r1, c1] * D[:, r2, c2] - D[:, r1, c2] * D[:, r2, c1])
        - D[:, r0, c1] * (D[:, r1, c0] * D[:, r2, c2] - D[:, r1, c2] * D[:, r2, c0])
        + D[:, r0, c2] * (D[:, r1, c0] * D[:, r2, c1] - D[:, r1, c1] * D[:, r2, c0])
    )


def _batch_dets(D: np.ndarray) -> np.ndarray:
    """Determinants of a (N, d, d) batch for d <= 6, via Laplace row splits."""
    d = D.shape[1]
    if d <= 3:
        return _minor(D, tuple(range(d)), tuple(range(d)))
    r = d // 2
    top_rows = tuple(range(r))
    bot_rows = tuple(range(r, d))
    acc = None
    for cols in itertools.combinations(range(d), r):
        comp = tuple(c for c in range(d) if c not in cols)
        sign = -1 if (sum(cols) + r * (r - 1) // 2) % 2 else 1
        term = _minor(D, top_rows, cols) * _minor(D, bot_rows, comp)
        acc = sign * term if acc is None else acc + sign * term
    return acc


def _minor_bound(k: int, a: int) -> int:
    return {1: a, 2: 2 * a * a, 3: 6 * a ** 3}[k]


def _int64_safe(d: int, max_abs_coord: int) -> bool:
    """True when the Laplace split of any d x d difference matrix fits int64."""
    if d > 6:
        return False
    a = 2 * max_abs_coord  # difference of two coordinates
    if d <= 3:
        bound = _minor_bound(d, a)
    else:
        r = d // 2
        bound = comb(d, r) * _minor_bound(r, a) * _minor_bound(d - r, a)
    return bound < _INT64_SAFE


def _combo_chunks(n: int, k: int):
    it = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(it, _CHUNK))
        if not chunk:
            return
        yield chunk


def _best_subset_numpy(P: np.ndarray, n: int, d: int) -> Tuple[Tuple[int, ...], object]:
    best_val = None
    best_combo = None
    for chunk in _combo_chunks(n, d + 1):
        idx = np.asarray(chunk, dtype=np.intp)
        D = P[idx[:, 1:]] - P[idx[:, :1]]
        vals = np.abs(_batch_dets(D))
        pos = int(np.argmax(vals))
        val = vals[pos]
        if best_val is None or val > best_val:
            best_val = val
            best_combo = chunk[pos]
    return tuple(best_combo), best_val


def _best_subset_python(P: Sequence[Sequence[int]], n: int, d: int):
    best_val = -1
    best_combo = None
    for combo in itertools.combinations(range(n), d + 1):
        base = P[combo[0]]
        rows = [[P[i][k] - base[k] for k in range(d)] for i in combo[1:]]
        val = abs(linalg.int_det_bareiss(rows))
        if val > best_val:
            best_val = val
            best_combo = combo
    return best_combo, best_val


def mvs_exact(x: PointSet, *, enum_cap: int = DEFAULT_ENUM_CAP) -> MvsResult:
    """Globally maximum-volume simplex by exhaustive subset enumeration."""
    n, d = len(x), x.dim
    if n < d + 1:
        raise DegeneratePointSetError(f"need at least {d + 1} points, got {n}")
    total = comb(n, d + 1)
    if total > enum_cap:
        raise EnumerationCapError(
            f"C({n}, {d + 1}) = {total} subsets exceeds the cap of {enum_cap}"
        )
    mode = infer_mode(v for p in x.points for v in p)
    if mode is ScalarMode.EXACT:
        ints, scale = linalg.clear_denominators(x.points)
        max_abs = max((abs(v) for row in ints for v in row), default=0)
        if _int64_safe(d, max_abs):
            P = np.asarray(ints, dtype=np.int64)
            combo, val = _best_subset_numpy(P, n, d)
            best_val = int(val)
        else:
            combo, best_val = _best_subset_python(ints, n, d)
        if best_val == 0:
            raise DegeneratePointSetError("points do not affinely span the ambient space")
        volume = Fraction(best_val, factorial(d) * scale ** d)
    else:
        if d <= 6:
            P = np.asarray([[float(v) for v in p] for p in x.points], dtype=np.float64)
            combo, val = _best_subset_numpy(P, n, d)
            best_val = float(val)
        else:
            best_val = -1.0
            combo = None
            for cand in itertools.combinations(range(n), d + 1):
                rows = [vec_sub(x.points[i], x.points[cand[0]]) for i in cand[1:]]
                v = abs(linalg.det(rows))
                if v > best_val:
                    best_val, combo = v, cand
        if best_val == 0:
            raise DegeneratePointSetError("points do not affinely span the ambient space")
        volume = best_val / factorial(d)
    simplex = Simplex(d, tuple(x.points[i] for i in combo), tuple(combo))
    return MvsResult(simplex=simplex, volume=volume, method="exact", swap_count=0)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

def _greedy_seed(x: PointSet, order: Sequence[int]) -> List[int]:
    d = x.dim
    pts = x.points
    best_pair = None
    best_d2 = None
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            i, j = order[a], order[b]
            diff = vec_sub(pts[i], pts[j])
            d2 = sum(v * v for v in diff)
            if best_d2 is None or d2 > best_d2:
                best_d2, best_pair = d2, (i, j)
    if not best_d2:
        raise DegeneratePointSetError("all points coincide")
    chosen = list(best_pair)
    basis = [vec_sub(pts[chosen[1]], pts[chosen[0]])]
    while len(chosen) < d + 1:
        best_j = None
        best_g = 0
        for j in order:
            if j in chosen:
                continue
            cand = basis + [vec_sub(pts[j], pts[chosen[0]])]
            g = linalg.gram_det(cand)
            if g > best_g:
                best_g, best_j = g, j
        if best_j is None:
            raise DegeneratePointSetError("points do not affinely span the ambient space")
        chosen.append(best_j)
        basis.append(vec_sub(pts[best_j], pts[chosen[0]]))
    return chosen


def mvs_local_search(x: PointSet, seed: int = 0, _trace: Optional[list] = None) -> MvsResult:
    """Swap-locally-maximal simplex; the seed varies tie-breaking and starts."""
    n, d = len(x), x.dim
    if n < d + 1:
        raise DegeneratePointSetError(f"need at least {d + 1} points, got {n}")
    require_spanning(x)
    mode = infer_mode(v for p in x.points for v in p)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    chosen = _greedy_seed(x, order)

    threshold: Scalar = d + 1 if mode is ScalarMode.EXACT else (d + 1) * (1.0 + 1e-12)
    swaps = 0
    while True:
        simplex = Simplex(d, tuple(x.points[i] for i in chosen), tuple(chosen))
        if _trace is not None:
            _trace.append(simplex_volume(simplex))
        h = halfspace_form(simplex)
        best_gain: Scalar = threshold
        best_swap = None
        for i in range(d + 1):
            for j in range(n):
                val = h.value(i, x.points[j])
                gain = val - 1 if val >= 1 else 1 - val
                if gain > best_gain:
                    best_gain, best_swap = gain, (i, j)
        if best_swap is None:
            break
        chosen[best_swap[0]] = best_swap[1]
        swaps += 1
    return MvsResult(
        simplex=simplex,
        volume=simplex_volume(simplex),
        method="local-search",
        swap_count=swaps,
    )


def verify_local_maximality(
    t: Simplex, x: PointSet, tol: Scalar = 0
) -> LocalMaximalityReport:
    """Check the slab criterion -d - tol <= a_i . (p - c) <= d + 2 + tol.

    Equivalent to: no single-vertex swap with a point of x increases volume
    (up to tol).  Reports the worst offending (facet, point) pair.
    """
    d = t.dim
    k = slab_kernel(t, x)
    hi, lo = (d + 2) * k.den, -d * k.den
    worst: Scalar = -(d + 2) * k.den  # below every possible excess
    worst_facet = worst_point = None
    for i, row in enumerate(k.values):
        for j, val in enumerate(row):
            excess = max(val - hi, lo - val)
            if excess > worst:
                worst, worst_facet, worst_point = excess, i, j
    worst = k.scalar(worst)
    return LocalMaximalityReport(
        ok=worst <= tol,
        worst_facet=worst_facet,
        worst_point=worst_point,
        excess=worst,
        slab=k.slab(),
    )
