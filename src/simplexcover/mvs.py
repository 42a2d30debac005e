"""Maximum-volume simplex (MVS) search over a finite point set.

Two entry points:

* ``mvs_exact``: exhaustive enumeration of all C(n, d+1) vertex subsets.
  Rational input arrives as integers over one denominator (the point
  set's ``array``), and whenever a conservative a-priori bound proves
  that every intermediate of a d x d minor expansion fits in int64, the
  subsets are evaluated in vectorized numpy batches with *exact* integer
  arithmetic; float input with d <= 6 takes the same batches in float64.
  Otherwise one determinant at a time is taken in pure Python: big-integer
  Bareiss, so arbitrary rational input stays exact, or pivoted elimination
  for float input with d > 6.
  Ties are broken toward the lexicographically smallest sorted index tuple.

* ``mvs_local_search``: a greedy seed, then single-vertex swaps until none
  helps.  The rows of the point set's ``array``, in a seeded shuffled
  order, feed the seed.  The seed is the farthest pair, found by
  scanning blocks of rows against all later rows, extended one vertex at a
  time by the point with the largest bordered Gram determinant; all
  candidates are scored at once.  Each swap step reads one ``slab_kernel``
  of the current simplex and takes the first (facet, point) pair with the
  largest |u - 1|.  The result is swap-locally maximal: no single vertex
  replacement by a point of X increases the volume (beyond relative 1e-12
  in float mode).

Swap-local maximality is exactly the slab property checked by
``verify_local_maximality``: replacing vertex i by x scales the volume by
|a_i . (x - c) - 1| / (d + 1), so maximality of a simplex with unit facet
offsets is equivalent to -d <= a_i . (x - c) <= d + 2 for all facets i and
points x.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import (
    DegeneratePointSetError,
    EnumerationCapError,
    NumericalBreakdownError,
    SingularMatrixError,
)
from .geometry import (
    PointSet,
    Simplex,
    SlabKernel,
    dot,
    simplex_volume,
    slab_kernel,
)
from .scalars import Scalar, ScalarMode

DEFAULT_ENUM_CAP = 2_000_000
_CHUNK = 65_536
_INT64_SAFE = 1 << 62
_PAIR_BLOCK = 32  # rows per block of the farthest-pair scan
_NOT_SPANNING = "points do not affinely span the ambient space"


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


def _best_subset_python(P: Sequence[Sequence[Scalar]], n: int, d: int):
    """Subset enumeration one determinant at a time: big-integer Bareiss on
    int rows, pivoted elimination (``linalg.det``) on float rows."""
    det = linalg.det if isinstance(P[0][0], float) else linalg.int_det_bareiss
    best_val = -1
    best_combo = None
    for combo in itertools.combinations(range(n), d + 1):
        base = P[combo[0]]
        rows = [[P[i][k] - base[k] for k in range(d)] for i in combo[1:]]
        val = abs(det(rows))
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
    exact = x.mode is ScalarMode.EXACT
    batched = _int64_safe(d, max(map(abs, x.array.flat))) if exact else d <= 6
    if batched:
        P = x.array.astype(np.int64) if exact else x.array
        combo, val = _best_subset_numpy(P, n, d)
        best_val = val.item()  # a Python int or float
    else:
        combo, best_val = _best_subset_python(x.array.tolist(), n, d)
    # A float subset that repeats a point scores rounding noise, not 0.
    if best_val == 0 or len({x.points[i] for i in combo}) <= d:
        raise DegeneratePointSetError(_NOT_SPANNING)
    if exact:
        volume = Fraction(best_val, factorial(d) * x.scale ** d)
    else:
        volume = best_val / factorial(d)
    simplex = Simplex(d, tuple(x.points[i] for i in combo), tuple(combo))
    return MvsResult(simplex=simplex, volume=volume, method="exact", swap_count=0)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

def _farthest_pair(P: np.ndarray) -> Tuple[int, int]:
    """The first pair a < b of rows, in row order, at the largest distance.

    Rows are scanned in blocks of ``_PAIR_BLOCK`` against every later row;
    squared distances are summed coordinate by coordinate, left to right.
    """
    n, d = P.shape
    best_d2, best = -1, (0, 1)
    for a0 in range(0, n - 1, _PAIR_BLOCK):
        a1 = min(a0 + _PAIR_BLOCK, n - 1)
        later = P[a0 + 1:]
        d2 = None
        for q in range(d):
            diff = P[a0:a1, q, None] - later[:, q]
            d2 = diff * diff if d2 is None else d2 + diff * diff
        d2[np.arange(1, n - a0) <= np.arange(a1 - a0)[:, None]] = -1  # b <= a
        pos = int(np.argmax(d2))  # first maximum in row-major, i.e. (a, b) order
        a, b = divmod(pos, n - a0 - 1)
        if d2[a, b] > best_d2:
            best_d2, best = d2[a, b], (a0 + a, a0 + 1 + b)
    return best


def _greedy_seed(P: np.ndarray) -> List[int]:
    """Farthest pair, then repeatedly the point that most enlarges the volume.

    A candidate v (taken relative to the first vertex) extends the basis B
    with Gram matrix G = B B^T to the bordered Gram determinant
    det(G) |v|^2 - b^T adj(G) b, with b = B v; all candidates are scored at
    once from one fraction-free inverse of G.  Ties go to the first row.

    This is the search's only test that the points affinely span R^d: it
    raises ``DegeneratePointSetError`` when the farthest pair coincides, when
    G is singular (a float score can be positive by rounding alone), when
    no candidate adds volume or when the best candidate equals a chosen
    vertex.
    """
    d = P.shape[1]
    chosen = list(_farthest_pair(P))
    if (P[chosen[0]] == P[chosen[1]]).all():
        raise DegeneratePointSetError(_NOT_SPANNING)
    rel = [P[:, q] - P[chosen[0], q] for q in range(d)]  # coordinate-major
    norm2 = linalg.combine(rel, rel)
    while len(chosen) < d + 1:
        basis = [[rel[q][c] for q in range(d)] for c in chosen[1:]]
        try:
            adj, det = linalg.scaled_inverse([[dot(u, v) for v in basis] for u in basis])
        except SingularMatrixError:
            raise DegeneratePointSetError(_NOT_SPANNING) from None
        if det < 0:
            adj, det = [[-v for v in row] for row in adj], -det
        b = [linalg.combine(u, rel) for u in basis]
        adj_b = [linalg.combine(row, b) for row in adj]
        score = det * norm2 - linalg.combine(b, adj_b)
        score[chosen] = 0
        best = int(np.argmax(score))
        # A float copy of a chosen vertex can score positive by rounding.
        if not score[best] > 0 or (P[chosen] == P[best]).all(axis=1).any():
            raise DegeneratePointSetError(_NOT_SPANNING)
        chosen.append(best)
    return chosen


def mvs_local_search(x: PointSet, seed: int = 0) -> MvsResult:
    """Swap-locally-maximal simplex; the seed varies tie-breaking and starts.

    A float search that comes back to a simplex raises
    ``NumericalBreakdownError``.
    """
    n, d = len(x), x.dim
    if n < d + 1:
        raise DegeneratePointSetError(f"need at least {d + 1} points, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    chosen = [order[i] for i in _greedy_seed(x.array[order])]

    threshold: Scalar = d + 1 if x.mode is ScalarMode.EXACT else (d + 1) * (1.0 + 1e-12)
    swaps = 0
    # Exact swaps strictly increase the volume; only a float kernel that has
    # lost precision can lead back to a simplex already seen, and from there
    # the deterministic search would repeat forever.
    visited = set()
    while True:
        key = tuple(chosen)
        if key in visited:
            raise NumericalBreakdownError(
                "local search revisited a simplex in float mode; rerun in exact mode"
            )
        visited.add(key)
        simplex = Simplex(d, tuple(x.points[i] for i in chosen), key)
        # Swapping vertex i for point j scales the volume by |u_ij - 1| / (d+1).
        k = slab_kernel(simplex, x)
        gain = np.abs(k.values - k.den)
        pos = int(np.argmax(gain))  # first maximum, facet-major
        if not gain.flat[pos] > threshold * k.den:
            break
        i, j = divmod(pos, n)
        chosen[i] = j
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
    (up to tol).  Reports the worst offending (facet, point) pair.  A float
    check that fails is decided again in exact arithmetic on the binary
    rationals the floats denote, so rounding alone never fails it; that
    report carries the exact values rounded to float.
    """
    k = slab_kernel(t, x)
    report = _slab_check(k, tol)
    if report.ok or k.mode is ScalarMode.EXACT:
        return report
    exact = _slab_check(
        slab_kernel(
            Simplex(t.dim, _as_fractions(t.vertices), t.vertex_indices),
            PointSet(x.dim, _as_fractions(x.points)),
        ),
        tol,
    )
    slab = [(float(lo), float(hi)) for lo, hi in exact.slab]
    return replace(exact, excess=float(exact.excess), slab=slab)


def _as_fractions(points: Sequence[Sequence[Scalar]]) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(map(Fraction, p)) for p in points)


def _slab_check(k: SlabKernel, tol: Scalar) -> LocalMaximalityReport:
    d = k.values.shape[0] - 1
    excess = np.maximum(k.values - (d + 2) * k.den, -d * k.den - k.values)
    pos = int(np.argmax(excess))  # first maximum, facet-major
    worst_facet, worst_point = divmod(pos, k.values.shape[1])
    worst = k.scalar(excess.flat[pos])
    return LocalMaximalityReport(
        ok=worst <= tol,
        worst_facet=worst_facet,
        worst_point=worst_point,
        excess=worst,
        slab=k.slab(),
    )
