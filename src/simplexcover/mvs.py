"""Maximum-volume simplex (MVS) search over a finite point set.

Two entry points:

* ``mvs_exact``: exhaustive enumeration of all C(n, d+1) vertex subsets.
  Rational input arrives as integers over one denominator (the point
  set's ``array``).  For d <= 7 the enumeration walks the d-subsets
  (facets) in lexicographic order, in numpy chunks: each facet's cofactor
  vector, the signed (d-1)-minors of its difference rows, scores every
  later point with one dot product.  The walk runs on int64 when an
  a-priori bound (``_int64_safe``) proves that no intermediate overflows,
  and on object-dtype Python ints otherwise, so both stay exact.  Float
  input with d <= 6 reads its subsets from the same chunked generator and
  takes one float64 d x d determinant per subset.  Only d > 7 (exact) and
  d > 6 (float) take one determinant at a time in pure Python:
  big-integer Bareiss, or pivoted elimination for float input.
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

def _minor(D, rows: Sequence[int], cols: Sequence[int]):
    """k x k determinant (k <= 3) of given rows/cols; D[r][c] is a batch."""
    k = len(rows)
    if k == 1:
        return D[rows[0]][cols[0]]
    if k == 2:
        (r0, r1), (c0, c1) = rows, cols
        return D[r0][c0] * D[r1][c1] - D[r0][c1] * D[r1][c0]
    (r0, r1, r2), (c0, c1, c2) = rows, cols
    return (
        D[r0][c0] * (D[r1][c1] * D[r2][c2] - D[r1][c2] * D[r2][c1])
        - D[r0][c1] * (D[r1][c0] * D[r2][c2] - D[r1][c2] * D[r2][c0])
        + D[r0][c2] * (D[r1][c0] * D[r2][c1] - D[r1][c1] * D[r2][c0])
    )


def _batch_dets(D):
    """Determinants of a batch of d x d matrices, 1 <= d <= 6, via Laplace
    row splits.  D[r][c] holds entry (r, c) of every matrix: a (d, d, N)
    array or nested lists of N-vectors, so each product runs over
    contiguous memory."""
    d = len(D)
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
    """Bound on every intermediate of ``_batch_dets`` on k x k entries <= a."""
    if k <= 3:
        return (1, a, 2 * a * a, 6 * a ** 3)[k]
    r = k // 2
    return comb(k, r) * _minor_bound(r, a) * _minor_bound(k - r, a)


def _int64_safe(d: int, max_abs_coord: int) -> bool:
    """True when every intermediate of ``_cofactor_scores`` fits int64.

    Proof.  Let A = ``max_abs_coord``.  Every entry of a difference row
    p_fi - p_f0 is at most 2A in absolute value.  ``_minor`` on k <= 3 rows
    of entries at most a keeps every intermediate within 1, a, 2a^2, 6a^3
    (for k = 3: each 2 x 2 bracket is at most 2a^2, each of its three
    products at most 2a^3).  ``_batch_dets`` on k = 4..6 rows adds
    C(k, r) products of an r- and a (k - r)-minor, r = k // 2, so every
    partial sum stays within B_k = C(k, r) B_r B_{k-r}.  A cofactor is a
    (d-1)-minor of the difference rows, so |c_F| <= M = B_{d-1}(2A)
    entrywise.  The dot products c_F . p_j and c_F . p_f0 add d products
    of at most M A each, so each of their partial sums, in any order, is
    at most d M A, and their difference at most 2 d M A.  For A >= 1 that
    last bound is the largest of all, so requiring it below 2^62 proves
    the int64 path exact.  d > 7 has no batched cofactors.
    """
    if d > 7:
        return False
    return 2 * d * _minor_bound(d - 1, 2 * max_abs_coord) * max_abs_coord < _INT64_SAFE


def _subsets(n: int, k: int, size: int):
    """The k-subsets of range(n) in lexicographic order, in chunks of at most
    ``size``: (k, m) intp arrays whose columns are the subsets.

    Each subset is unranked on its own.  With q = C(n, k) - rank, counted
    from the end, the next element is n - y for the least y with
    C(y, t) >= q, where t elements remain to be chosen, and q then drops by
    C(y - 1, t).
    """
    total = comb(n, k)
    binom = [np.array([comb(y, t) for y in range(n + 1)], dtype=np.int64) for t in range(k + 1)]
    for start in range(0, total, size):
        q = total - np.arange(start, min(start + size, total), dtype=np.int64)
        out = np.empty((k, len(q)), dtype=np.intp)
        for p, t in enumerate(range(k, 0, -1)):
            y = np.searchsorted(binom[t], q)
            out[p] = n - y
            q -= binom[t][y - 1]
        yield out


def _cofactor_scores(Pt: np.ndarray, F: np.ndarray):
    """Score each facet F[:, i] with every later point j, F[-1, i] < j < n.

    Pt holds the n points coordinate-major.  The cofactor vector c_F of a
    facet F = (f0, ..., f_{d-1}) holds the signed (d-1)-minors of its
    difference rows p_fi - p_f0, so the simplex F + (j,) costs one dot
    product: |c_F . p_j - c_F . p_f0| = |det| of its difference rows.
    Returns the scores and, for each, its facet column f and point j, in
    (facet, point) row-major order.
    """
    d, n = Pt.shape
    count = n - 1 - F[-1]
    # Pair p belongs to facet f[p]; counted from that facet's first pair,
    # it is the point F[-1, f[p]] + 1 + (p - first).
    f = np.repeat(np.arange(F.shape[1]), count)
    j = np.arange(len(f)) + np.repeat(F[-1] + 1 + count - np.cumsum(count), count)
    E = [[Pc[F[i]] - Pc[F[0]] for Pc in Pt] for i in range(1, d)]
    if d == 1:
        C = [np.ones(F.shape[1], dtype=Pt.dtype)]
    else:
        C = [(-1) ** c * _batch_dets([row[:c] + row[c + 1:] for row in E]) for c in range(d)]
    base = linalg.combine(C, [Pc[F[0]] for Pc in Pt])
    vals = np.abs(linalg.combine([Cc[f] for Cc in C], [Pc[j] for Pc in Pt]) - base[f])
    return vals, f, j


def _best_subset_numpy(P: np.ndarray, n: int, d: int) -> Tuple[Tuple[int, ...], object]:
    """The first maximum |det| over the (d+1)-subsets in lexicographic order.

    Integer rows (int64 or object-dtype Python ints, d <= 7) are walked
    facet by facet with ``_cofactor_scores``, max(1, ``_CHUNK`` // n)
    facets at a time, so a chunk scores fewer than max(``_CHUNK``, n)
    (facet, point) pairs; their row-major order is the lexicographic order
    of the subsets.  Float rows (d <= 6) take one full
    d x d determinant per subset.  Returns the index tuple and the value as
    a Python int or float.
    """
    exact = P.dtype != np.float64
    Pt = np.ascontiguousarray(P.T)
    best_val = best_combo = None
    if exact:  # a facet needs a later point, so it lies in range(n - 1)
        chunks = _subsets(n - 1, d, max(1, _CHUNK // n))
    else:
        chunks = _subsets(n, d + 1, _CHUNK)
    for S in chunks:
        if exact:
            vals, f, j = _cofactor_scores(Pt, S)
        else:
            vals = np.abs(_batch_dets([[Pc[S[r]] - Pc[S[0]] for Pc in Pt] for r in range(1, d + 1)]))
        pos = int(np.argmax(vals))  # first maximum in chunk order
        if best_val is None or vals.item(pos) > best_val:
            best_val = vals.item(pos)
            if exact:
                best_combo = (*S[:, f[pos]].tolist(), int(j[pos]))
            else:
                best_combo = tuple(S[:, pos].tolist())
    return best_combo, best_val


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
    if d <= (7 if exact else 6):
        P = x.array
        if exact and _int64_safe(d, max(map(abs, P.flat))):
            P = P.astype(np.int64)
        combo, best_val = _best_subset_numpy(P, n, d)
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
    return _local_maximality(slab_kernel(t, x), t, x, tol)


def _local_maximality(
    k: SlabKernel, t: Simplex, x: PointSet, tol: Scalar
) -> LocalMaximalityReport:
    """``verify_local_maximality`` on the kernel ``slab_kernel(t, x)``."""
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
