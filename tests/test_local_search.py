"""The array swap local search against its scalar reference.

``mvs_local_search`` prunes the rows that cannot be in the farthest pair,
scans the rest in row blocks, scores every seed candidate at once and takes
each swap from one slab kernel.  ``reference_local_search`` (helpers.py)
does the same search one pair, candidate and (facet, point) at a time.  Both
must visit the same simplices: equal vertex indices, swap counts and traced
volumes.  The inputs cover integer lattices where many distances and
volumes tie (so the first-in-order tie-breaking is exercised), and
coordinates near 10^30 whose products only fit Python ints.  Float mode is
compared on random points, where no two candidates tie.  Pruning leaves few
rows of a cube, so the block edges of the pair scan (``_PAIR_BLOCK`` - 1, +0
and +1 rows) are covered by lattice points on a sphere, of which it keeps
every row.  ``_farthest_pair`` is compared with ``reference_farthest_pair``,
which scans every pair, on every row of ``HARD`` (``tests/hard_inputs.py``).
"""
import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

import simplexcover.mvs as mvs
from cli_cases import CONTRACT
from hard_inputs import HARD, points
from helpers import (
    fraction_volume,
    reference_farthest_pair,
    reference_local_search,
    traced_local_search,
)
from simplexcover.geometry import PointSet
from simplexcover.mvs import _PAIR_BLOCK, _farthest_pair, mvs_local_search

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

    text = CONTRACT["mixed-local"].files["mixed.csv"]
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


@lru_cache(maxsize=None)
def _sphere(d: int):
    """The integer points of R^d at distance 5 from 0, axis points first."""
    pts = [p for p in itertools.product(range(-5, 6), repeat=d) if sum(v * v for v in p) == 25]
    return sorted(pts, key=lambda p: sum(map(abs, p)) != 5)


def sphere_points(d: int, n: int, seed: int, exact: bool) -> PointSet:
    """The 2d axis points of the sphere of radius 5, then random points of
    it (repeats allowed): the bounding box is [-5, 5]^d, so every point is
    at the largest distance from its centre and the pair scan keeps every
    row."""
    rng = random.Random(f"sphere/{d}/{n}/{seed}")
    pts = _sphere(d)
    rows = pts[:2 * d] + [rng.choice(pts) for _ in range(n - 2 * d)]
    rng.shuffle(rows)
    return PointSet(d, [tuple(v if exact else float(v) for v in p) for p in rows])


@pytest.fixture
def scanned(monkeypatch):
    """The row count of every block scan that ``_farthest_pair`` runs."""
    sizes = []
    pair_scan = mvs._pair_scan

    def recording(P):
        sizes.append(len(P))
        return pair_scan(P)

    monkeypatch.setattr(mvs, "_pair_scan", recording)
    return sizes


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3, 4, 5)
                                 for n in (_PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1)])
def test_sphere_rows_all_reach_the_block_scan(monkeypatch, scanned, d, n, exact):
    # Small integers: every float operation of the search is exact, so the
    # float search follows exact mode too.
    for seed in (0, 1):
        x = sphere_points(d, n, seed, exact)
        res, trace = traced_local_search(monkeypatch, x, seed=seed)
        indices, swaps, volumes = reference_local_search(sphere_points(d, n, seed, True), seed)
        assert (res.simplex.vertex_indices, res.swap_count) == (indices, swaps)
        assert trace == [v if exact else float(v) for v in volumes]
    assert scanned == [n, n]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(HARD))
def test_farthest_pair_matches_the_full_scan(name):
    P = points(name).array
    assert _farthest_pair(P) == reference_farthest_pair(P)


def test_pruning_keeps_few_cube_rows(scanned):
    P = points("cube-d3").array
    assert _farthest_pair(P) == reference_farthest_pair(P)
    assert scanned and scanned[0] < len(P) // 10
