"""Maximum-volume simplex (MVS) search over a finite point set.

Two searches, and ``max_volume_simplex``, the rule that picks one: enumerate
when C(n, d+1) is at most ``enum_cap``, the cap ``mvs_exact`` enforces,
else search locally.

* ``mvs_exact``: exhaustive enumeration of all C(n, d+1) vertex subsets, ties
  to the lexicographically smallest index tuple.  Float input is enumerated
  exactly on its binary rationals, by the same route: d <= 7 by one float64
  walk, its near-maximal subsets rescored exactly; d > 7 by Bareiss.

* ``mvs_local_search``: a greedy seed, then single-vertex swaps until none
  helps.  The rows of the point set's ``array``, in a seeded shuffled
  order, feed the seed.  The seed is the farthest pair, found by
  scanning blocks of rows against all later rows, after a bound around the
  bounding box's centre has dropped the rows that cannot be in it.  It is
  extended one vertex at a time by the point with the largest bordered
  Gram determinant; all candidates are scored at once.  Each swap step
  reads one ``slab_kernel`` of the current simplex and takes the first
  (facet, point) pair with the largest |u - 1|.  The result is
  swap-locally maximal: no single vertex replacement by a point of X
  increases the volume (beyond ``FLOAT_SWAP_MARGIN`` in float mode).

Both report ``simplex_volume`` of their simplex, so a float volume is the
exact volume of the binary rationals rounded once, whichever search ran.

Swap-local maximality is exactly the slab property checked by
``verify_local_maximality``, or ``kernel_local_maximality`` on a kernel
already built: replacing vertex i by x scales the volume by
|a_i . (x - c) - 1| / (d + 1), so maximality of a simplex with unit facet
offsets is equivalent to -d <= a_i . (x - c) <= d + 2 for all facets i and
points x.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, nextafter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import DegeneratePointSetError, EnumerationCapError, NumericalBreakdownError
from .errors import SingularMatrixError
from .geometry import PointSet, Simplex, SlabKernel, dot, simplex_volume, slab_kernel
from .scalars import FLOAT_SWAP_MARGIN, Scalar, ScalarMode

DEFAULT_ENUM_CAP = 2_000_000
_CHUNK = 65_536
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
# subset enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _prefixes(n: int, d: int):
    """Levels 0 .. d-1 of the prefixes f0 < ... < fk <= n - 1 - d + k of the
    (d+1)-subsets of range(n), in lexicographic order: parent, fk, f0, and the
    Laplace terms (C[t], index of C - C[t]) over the k-subsets C, t < k.

    Indices are int32.  Entries are below n or a level's size, at most
    C(n - 1, d) <= C(n, d+1), and row indices f0 * n + last below n^2: the
    default cap gives n <= 2,000, so f0 * n + last < 4 * 10^6 cannot
    overflow.  Overflow would first need 2^30 prefixes (12 GiB of indices).
    """
    levels = [(None, np.arange(n - d, dtype=np.int32), np.arange(n - d, dtype=np.int32), None)]
    for k in range(1, d):
        last, f0 = levels[-1][1:3]
        count = n - 1 - d + k - last
        parent = np.repeat(np.arange(len(last), dtype=np.int32), count)
        skip = (np.cumsum(count) - count - last - 1).astype(np.int32)
        last = np.arange(len(parent), dtype=np.int32) - np.repeat(skip, count)
        sub = {c: i for i, c in enumerate(itertools.combinations(range(d), k - 1))}
        comps = list(itertools.combinations(range(d), k))
        terms = [(np.array([c[t] for c in comps]), np.array([sub[c[:t] + c[t + 1:]] for c in comps]))
                 for t in range(k)]
        levels.append((parent, last, f0[parent], terms))
    return levels


@lru_cache(maxsize=None)
def _rounding_bound(d: int) -> float:
    """A bound e on |S - s| for every score S of ``_best_subset_numpy``, rounded up.

    Proof.  With u = 2^-53 and eta = 2^-1075 a rounded sum is off by at most
    u |sum|, a rounded product by u |product| + eta, underflow included.
    Inputs x in [0, 1) become floats in [0, 1] off by u + eta, so a row
    entry fl(X_b - X_a) is off by ed = 3 u + 2 eta; both are at most 1.  Level
    k sums k products of a row entry (at level d a point, ed = u + eta) and a
    (k-1)-minor (<= a = (k-1)!, off by err), each off by p = u (1 + ed)(a +
    err) + eta + (1 + ed) err + a ed; summed in any order, fused or not, they
    are off by k p + gamma_{k-1} k (a + p), gamma_j = j u / (1 - j u).  A
    score subtracts two level-d dot products, each at most d!.
    """
    u, eta, a, err = Fraction(1, 2**53), Fraction(1, 2**1075), 1, 0
    for k in range(1, d + 1):
        ed = 3 * u + 2 * eta if k < d else u + eta
        p = u * (1 + ed) * (a + err) + eta + (1 + ed) * err + a * ed
        err, a = k * p + (k - 1) * u / (1 - (k - 1) * u) * k * (a + p), a * k
    return nextafter(float(2 * err + 2 * u * (a + err)), float("inf"))


def _best_subset_numpy(P: np.ndarray, n: int, d: int) -> Tuple[Tuple[int, ...], int]:
    """The first maximum |det| over the (d+1)-subsets of the integer rows P,
    lexicographic, and its tuple, for d <= 7: one float64 walk.

    Rows are translated by their column minima and scaled into [0, 1) by
    ``int / 2**s``.  Prefixes get minors of p_fi - p_f0 from their parents';
    facet cofactors c score j as |c . p_j - c . p_f0|, ``_CHUNK`` // n facets
    at a time.  Each S is within e = ``_rounding_bound`` of its exact score
    (e = 0 if d! r^d < 2^53 on [0, r]).  One rule keeps a subset for exact
    rescoring (``_first_max``, walk order): S >= fl(best - 2e), best the
    largest S, and S > fl(M - 4e), M the largest earlier S (in its chunk,
    of those passing the first test).  A maximizer has S >= s* - e >= best
    - 2e, and rounding is monotone.  As fl(M - 4e) <= M - 2e (S < 2^54 e if
    e > 0), a subset failing the second test scores at most an earlier one
    (a repeat 0, a reordering as an earlier subset); with e = 0 one is kept.
    """
    Q = P - P.min(axis=0)
    r = int(Q.max())
    X = (Q.T / (1 << r.bit_length())).astype(np.float64)
    e = 0.0 if factorial(d) * r ** d < 2**53 else _rounding_bound(d)
    Xd = (X[:, None] - X[:, :, None]).reshape(d, -1) if d > 1 else X  # p_b - p_a at [:, a n + b]
    levels = _prefixes(n, d)
    _, last, f0, _ = levels[-1]

    def minors(k, lo, hi):  # of the level-k prefixes lo .. hi - 1
        if k == 0:
            return np.ones((1, hi - lo))
        parent, last, f0, terms = levels[k]
        p = parent[lo:hi]
        G = minors(k - 1, p[0], p[-1] + 1)[:, p - p[0]]
        D = np.take(Xd, f0[lo:hi] * n + last[lo:hi], axis=1)
        for t, (col, idx) in enumerate(terms):
            term = D[col]
            term *= G[idx]
            V = term if t == 0 else (np.subtract if t % 2 else np.add)(V, term, out=V)
        return V

    # Score: sum_q (-1)^q V[d-1-q] (p_j - p_f0)[q]; X carries signs and order.
    X = X[::-1] * np.where(np.arange(d) % 2, -1.0, 1.0)[::-1, None]
    step, best, kept = max(1, _CHUNK // n), -np.inf, []
    for a in range(0, len(last), step):
        S = minors(d - 1, a, min(a + step, len(last))).T @ X
        S -= S[np.arange(len(S)), f0[a:a + step], None]
        S = np.abs(S, out=S).ravel()
        top = S.max()
        if top >= best - 2 * e:
            prev, best = best, max(best, top)
            pos = np.flatnonzero(S >= best - 2 * e)
            earlier = np.maximum.accumulate(np.concatenate(([prev], S[pos[:-1]])))
            pos = pos[S[pos] > earlier - 4 * e]
            pos = pos[pos % n > last[pos // n + a]]  # else j repeats or reorders
            kept.append((S[pos], pos // n + a, pos % n))
    score, rows, j = (np.concatenate(z) for z in zip(*kept))
    cols, rows = [j[score >= best - 2 * e]], rows[score >= best - 2 * e]
    for parent, lst, _, _ in levels[:0:-1]:
        cols.append(lst[rows])
        rows = parent[rows]
    cands = map(tuple, np.array([rows] + cols[::-1]).T.tolist())
    return _first_max(P.tolist(), cands)


def _first_max(P: Sequence[Sequence[int]], combos):
    """The first of ``combos`` with the largest |det| of its difference rows,
    or (0, ..., d) and 0 when none has volume."""
    best_val, best_combo = 0, tuple(range(len(P[0]) + 1))
    for combo in combos:
        val = linalg.simplex_det([P[i] for i in combo])
        if val > best_val:
            best_val, best_combo = val, combo
    return best_combo, best_val


def _best_subset_python(P: Sequence[Sequence[int]], n: int, d: int):
    """Subset enumeration one big-integer Bareiss determinant at a time."""
    return _first_max(P, itertools.combinations(range(n), d + 1))


def _exact_twin(x: PointSet) -> np.ndarray:
    """The rows of float x as integers over one common denominator: the
    binary rationals the floats denote, scaled alike."""
    ints, _ = linalg.clear_denominators(x.array.tolist())
    return np.array(ints, dtype=object).reshape(len(x), x.dim)


def mvs_exact(x: PointSet, *, enum_cap: int = DEFAULT_ENUM_CAP) -> MvsResult:
    """Globally maximum-volume simplex by exhaustive subset enumeration; a
    float volume is the exact volume rounded once."""
    n, d = len(x), x.dim
    if n < d + 1:
        raise DegeneratePointSetError(f"need at least {d + 1} points, got {n}")
    total = comb(n, d + 1)
    if total > enum_cap:
        raise EnumerationCapError(
            f"C({n}, {d + 1}) = {total} subsets exceeds the cap of {enum_cap}"
        )
    # Every float is a binary rational: enumerate it exactly.
    P = x.array if x.mode is ScalarMode.EXACT else _exact_twin(x)
    if d <= 7:
        combo, best_val = _best_subset_numpy(P, n, d)
    else:
        combo, best_val = _best_subset_python(P.tolist(), n, d)
    if best_val == 0:
        raise DegeneratePointSetError(_NOT_SPANNING)
    simplex = Simplex(d, tuple(x.points[i] for i in combo), tuple(combo))
    return MvsResult(simplex=simplex, volume=simplex_volume(simplex), method="exact")


def max_volume_simplex(x: PointSet, *, enum_cap: int, seed: int) -> MvsResult:
    """``mvs_exact`` when its C(n, d+1) subsets fit ``enum_cap``, else
    ``mvs_local_search`` with ``seed``."""
    if comb(len(x), x.dim + 1) <= enum_cap:
        return mvs_exact(x, enum_cap=enum_cap)
    return mvs_local_search(x, seed=seed)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------

def _farthest_pair(P: np.ndarray) -> Tuple[int, int]:
    """The first pair a < b of rows, in row order, at the largest distance
    as ``_pair_scan`` computes it, scanning only rows that can be in it.

    Float rows whose squared differences could overflow are first scaled by
    a power of two, which changes no comparison (it is exact unless a
    coordinate falls below 2^-1022).  Let c be the centre of the bounding
    box, r_i = |p_i - c|, R = max r_i at row a, and L^2 = max_j s(a, j),
    where s is the scan's own squared distance.  The scan runs on the rows
    with r_i + R >= L (1 - m), m = (d + 8) 2^-48, in row order.

    Proof that the first maximal pair (p, q) of the full scan survives, and
    so stays first: the kept rows keep their order and their pairs' s.  With
    u = 2^-53 and eta = 2^-1075, s <= (1 + u)^(d+2) (D^2 + d eta) for the
    true distance D (each difference, square and sum rounds once; a square
    may underflow), and s = D^2 for exact rows.  Since s(p, q) >= L^2,
    D_pq >= L (1 + u)^-(d+2)/2 - sqrt(d eta).  By the triangle inequality
    r_p + R >= r_p + r_q >= D_pq, and the computed r_i are at least
    (1 - u)^((d+4)/2) r_i - sqrt(d eta); the sum, 1 - m and the threshold
    round once each, L at most twice.  So the test passes if
    L (m - (d + 9) u) >= 3 sqrt(d eta), which holds for L^2 >= 2^-960.
    Below that, and for integers past 2^53, which float64 cannot hold
    exactly, every row is scanned.
    """
    d = P.shape[1]
    if P.dtype == object:
        if np.abs(P).max() > 2**53:
            return _pair_scan(P)
        F = P.astype(np.float64)
    else:
        e = math.frexp(np.abs(P).max())[1]  # |P| < 2^e
        # Every squared distance is below d 2^(2e + 2) < 2^1022 after this.
        top = (1020 - d.bit_length()) // 2
        if e > top:
            P = P * 2.0 ** (top - e)
        F = P
    c = (F.min(axis=0) + F.max(axis=0)) / 2
    r = np.sqrt(((F - c) ** 2).sum(axis=1))
    a = int(np.argmax(r))
    L2 = _squared_distances(P[a:a + 1], P).max()
    if L2 < 2.0**-960:
        return _pair_scan(P)
    keep = np.flatnonzero(r + r[a] >= math.sqrt(L2) * (1 - (d + 8) * 2.0**-48))
    a, b = _pair_scan(P[keep])
    return int(keep[a]), int(keep[b])


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """|a - b|^2 for every row a of A and b of B, summed coordinate by
    coordinate, left to right."""
    for q in range(A.shape[1]):
        diff = A[:, q, None] - B[:, q]
        d2 = diff * diff if q == 0 else d2 + diff * diff
    return d2


def _pair_scan(P: np.ndarray) -> Tuple[int, int]:
    """The first pair a < b of rows, in row order, with the largest
    ``_squared_distances``: blocks of ``_PAIR_BLOCK`` rows against every
    later row."""
    n = len(P)
    best_d2, best = -1, (0, 1)
    for a0 in range(0, n - 1, _PAIR_BLOCK):
        a1 = min(a0 + _PAIR_BLOCK, n - 1)
        d2 = _squared_distances(P[a0:a1], P[a0 + 1:])
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

    A float search that comes back to a simplex, or whose seed finds float
    points non-spanning that span exactly, raises ``NumericalBreakdownError``.
    """
    n, d = len(x), x.dim
    if n < d + 1:
        raise DegeneratePointSetError(f"need at least {d + 1} points, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    try:
        chosen = [order[i] for i in _greedy_seed(x.array[order])]
    except DegeneratePointSetError:
        if x.mode is ScalarMode.EXACT:
            raise
        # Rounding can call spanning floats non-spanning: the exact twin,
        # seeded in the same order, decides which error stands.
        _greedy_seed(_exact_twin(x)[order])
        raise NumericalBreakdownError(
            "float rounding lost the span of the points in the local search seed; "
            "rerun in exact mode"
        ) from None

    threshold: Scalar = (
        d + 1 if x.mode is ScalarMode.EXACT else (d + 1) * (1.0 + FLOAT_SWAP_MARGIN)
    )
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
    return kernel_local_maximality(slab_kernel(t, x), t, x, tol)


def kernel_local_maximality(
    k: SlabKernel, t: Simplex, x: PointSet, tol: Scalar
) -> LocalMaximalityReport:
    """``verify_local_maximality`` on the kernel ``slab_kernel(t, x)``."""
    report = _slab_check(k, tol)
    if report.ok or k.mode is ScalarMode.EXACT:
        return report
    # The kernel read float(v) for every coordinate.  Slab values are
    # invariant under scaling t and x together, so the integers of those
    # binary rationals, over one denominator, decide the check.
    ints, _ = linalg.clear_denominators([[float(v) for v in p] for p in t.vertices + x.points])
    verts, pts = ints[:t.dim + 1], ints[t.dim + 1:]
    exact = _slab_check(
        slab_kernel(Simplex(t.dim, verts, t.vertex_indices), PointSet(x.dim, pts)), tol
    )
    slab = [(float(lo), float(hi)) for lo, hi in exact.slab]
    return replace(exact, excess=float(exact.excess), slab=slab)


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
