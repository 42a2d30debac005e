"""The array swap local search against its scalar reference.

``mvs_local_search`` scans pairs in row blocks, scores every seed candidate
at once and takes each swap from one slab kernel.  ``reference_local_search``
(helpers.py) does the same search one pair, candidate and (facet, point) at
a time.  Both must visit the same simplices: equal vertex indices, swap
counts and traced volumes.  The inputs cover the block edges of the pair
scan, integer lattices where many distances and volumes tie (so the
first-in-order tie-breaking is exercised), and coordinates near 10^30 whose
products only fit Python ints.  Float mode is compared on random points,
where no two candidates tie.
"""
import random
from fractions import Fraction

import pytest

from helpers import fraction_volume, reference_local_search, traced_local_search
from simplexcover.geometry import PointSet
from simplexcover.mvs import _PAIR_BLOCK, mvs_local_search

F = Fraction
SIZES = ("d+1", _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1, 70)


def _coord(rng: random.Random, kind: str):
    if kind == "grid":
        return F(rng.randint(-64, 64), 64)
    if kind == "lattice":
        return F(rng.randint(-2, 2))
    if kind == "huge":
        return F(rng.randint(-(10**30), 10**30), 7)
    return rng.uniform(-1.0, 1.0)


def spanning_points(d: int, size, kind: str, seed: int) -> PointSet:
    rng = random.Random(f"{kind}/{d}/{size}/{seed}")
    n = d + 1 if size == "d+1" else size
    while True:
        x = PointSet(d, [tuple(_coord(rng, kind) for _ in range(d)) for _ in range(n)])
        if _affine_rank(x) == d:
            return x


def _affine_rank(x: PointSet) -> int:
    """Rank of the differences p - p_0, by exact elimination."""
    rows = [[F(a) - F(b) for a, b in zip(p, x.points[0])] for p in x.points[1:]]
    rank = 0
    for q in range(x.dim):
        pivot = next((r for r in rows if r[q] != 0), None)
        if pivot is not None:
            rows = [[a - r[q] / pivot[q] * b for a, b in zip(r, pivot)]
                    for r in rows if r is not pivot]
            rank += 1
    return rank


EXACT = [(d, n, kind) for d in (1, 2, 3, 4, 5) for n in SIZES
         for kind in ("grid", "lattice", "huge")]
FLOAT = [(d, n, "float") for d in (2, 3, 4) for n in SIZES]


@pytest.mark.parametrize("d,n,kind", EXACT + FLOAT)
def test_matches_scalar_reference(monkeypatch, d, n, kind):
    for seed in (0, 1):
        x = spanning_points(d, n, kind, seed)
        res, trace = traced_local_search(monkeypatch, x, seed=seed)
        indices, swaps, volumes = reference_local_search(x, seed=seed)
        assert res.simplex.vertex_indices == indices
        assert res.swap_count == swaps
        assert trace == volumes
        assert res.volume == volumes[-1]


@pytest.mark.parametrize("d,n", [(d, n) for d in (2, 3, 4) for n in SIZES])
def test_float_search_on_a_lattice_follows_exact_mode(monkeypatch, d, n):
    # On small integers every float operation of the search is exact, so
    # ties between candidates and swaps are real ties and resolve as in
    # exact mode.  (The scalar float search breaks some of them by the
    # rounding of its Gaussian elimination instead.)
    for seed in (0, 1):
        x = spanning_points(d, n, "lattice", seed)
        xf = PointSet(d, [tuple(float(v) for v in p) for p in x.points])
        res, trace = traced_local_search(monkeypatch, xf, seed=seed)
        indices, swaps, volumes = reference_local_search(x, seed=seed)
        assert (res.simplex.vertex_indices, res.swap_count) == (indices, swaps)
        assert trace == pytest.approx([float(v) for v in volumes], rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_float_volume_is_the_exact_volume_rounded_once(d):
    # mvs_exact's rule: the exact volume of the binary rationals, rounded once.
    for seed in range(8):
        x = spanning_points(d, 40, "float", seed)
        res = mvs_local_search(x, seed=seed)
        exact = fraction_volume([tuple(map(F, p)) for p in res.simplex.vertices])
        assert res.volume == float(exact)


def test_exact_search_converts_only_the_simplex_vertices(monkeypatch):
    # x's points become ints once, when the PointSet is built; each swap's
    # kernel then converts only the d+1 vertices of the current simplex.
    import simplexcover.linalg as linalg

    text = ("2,18/61 21/89,26/41 18/97,-37/5 -19/41,-24/29 -33/17,-34/41 -11/53,-15/23 "
            "-24/13,4/61 0,11/5 2/29,-3 30/47,9/53 -9/83,-21/5 17/79,21/23")
    x = PointSet(2, [tuple(map(F, p.split(","))) for p in text.split()])
    rows = []
    clear = linalg.clear_denominators

    def recording(points):
        rows.append(len(points))
        return clear(points)

    monkeypatch.setattr(linalg, "clear_denominators", recording)
    res = mvs_local_search(x, seed=0)
    assert res.swap_count == 2
    assert rows and max(rows) <= x.dim + 1
