import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    FLOAT_LINE,
    ROUNDING_CSV,
    brute_mvs,
    float_points,
    rational_points,
    reflect_vertex,
    revisiting_float_inputs,
    traced_local_search,
)
from simplexcover.errors import (
    DegeneratePointSetError,
    EnumerationCapError,
    NumericalBreakdownError,
)
from simplexcover.geometry import (
    PointSet,
    Simplex,
    halfspace_form,
    make_simplex,
    simplex_volume,
    slab_kernel,
)
from simplexcover import mvs
from simplexcover.linalg import det, int_det_bareiss
from simplexcover.mvs import (
    _batch_dets,
    _best_subset_numpy,
    _best_subset_python,
    _int64_safe,
    _subsets,
    mvs_exact,
    mvs_local_search,
    verify_local_maximality,
)
from simplexcover.sampling import sample_body
from simplexcover.scalars import ScalarMode
from simplexcover.serialization import parse_points_csv

F = Fraction


def test_square_corners_volume_and_tiebreak():
    # all four triangles have volume 1/2; lex-smallest index tuple wins
    x = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))))
    res = mvs_exact(x)
    assert res.volume == F(1, 2)
    assert res.simplex.vertex_indices == (0, 1, 2)
    assert res.method == "exact"


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_batched_dets_match_plain_determinants(d):
    """The split-Laplace minor expansion must reproduce det exactly."""
    rng = np.random.default_rng(d)
    D = rng.integers(-9, 10, size=(40, d, d)).astype(np.int64)
    got = _batch_dets(D.transpose(1, 2, 0))
    for k in range(D.shape[0]):
        expect = det([[int(v) for v in row] for row in D[k]])
        assert int(got[k]) == expect


def test_int64_guard_thresholds():
    assert _int64_safe(2, 64)
    assert _int64_safe(5, 128)
    assert not _int64_safe(6, 10**9)


@pytest.fixture(params=[None, 3, 40], ids=["chunk-default", "chunk-3", "chunk-40"])
def chunk(request, monkeypatch):
    """Rerun a test with chunks of a few rows, so that the walk over facets
    (and over float subsets) crosses many chunk boundaries."""
    if request.param is not None:
        monkeypatch.setattr(mvs, "_CHUNK", request.param)


@pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (6, 3), (9, 4), (8, 8), (12, 5)])
@pytest.mark.parametrize("size", [1, 4, 1000])
def test_subsets_are_lexicographic(n, k, size):
    got = np.concatenate(list(_subsets(n, k, size)), axis=1)
    assert [tuple(c) for c in got.T.tolist()] == list(itertools.combinations(range(n), k))
    assert all(S.shape[1] <= size for S in _subsets(n, k, size))


def _largest_safe_coord(d):
    lo, hi = 1, 1 << 62  # _int64_safe(d, lo) holds, _int64_safe(d, hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _int64_safe(d, mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("d", range(1, 8))
def test_int64_guard_boundary(d, monkeypatch):
    a = _largest_safe_coord(d)
    assert _int64_safe(d, a) and not _int64_safe(d, a + 1)
    # Hypercube vertices +/-A: every difference entry is 0 or +/-2A.
    rng = random.Random(d)
    ints = [[rng.choice((-a, a)) for _ in range(d)] for _ in range(d + 3)]
    n = len(ints)
    big = np.array(ints, dtype=object)
    combo, val = _best_subset_numpy(big.astype(np.int64), n, d)
    assert val > 0
    assert (combo, val) == _best_subset_numpy(big, n, d)
    assert (combo, val) == _best_subset_python(ints, n, d)
    # mvs_exact takes the int64 path at A and the object path at A + 1.
    dtypes = []

    def spy(P, n, d):
        dtypes.append(P.dtype)
        return _best_subset_numpy(P, n, d)

    monkeypatch.setattr(mvs, "_best_subset_numpy", spy)
    for coord in (a, a + 1):
        mvs_exact(PointSet(d, tuple(tuple(F(coord if v > 0 else -coord) for v in p) for p in ints)))
    assert dtypes == [np.dtype(np.int64), np.dtype(object)]


def _tied_grid(d, seed=2):
    """d + 5 points of the 1/2 grid in [-1, 1]^d, two of them repeats."""
    rng = random.Random(seed)
    pts = [tuple(F(rng.randint(-2, 2), 2) for _ in range(d)) for _ in range(d + 3)]
    for _ in range(2):
        pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
    return PointSet(d, tuple(pts))


@pytest.mark.parametrize("d", range(1, 8))
def test_tied_grid_matches_brute(d, chunk):
    x = _tied_grid(d)
    P = x.array.tolist()
    dets = [
        abs(int_det_bareiss([[P[i][k] - P[c[0]][k] for k in range(d)] for i in c[1:]]))
        for c in itertools.combinations(range(len(x)), d + 1)
    ]
    assert dets.count(max(dets)) >= 3  # the lexicographic tie-break decides
    res = mvs_exact(x)
    assert (res.volume, res.simplex.vertex_indices) == brute_mvs(x)


@pytest.mark.parametrize("seed", range(3))
def test_decimal_set_matches_bareiss(seed, chunk):
    # The exact-cover benchmark's decimal shape: 20 points of R^3 written
    # with 6 decimals, whose common denominator 10^6 fails the int64 guard.
    rng = random.Random(seed)
    ks = [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(20)]
    ks[0][0] = 10**6 - 1
    x = PointSet(3, tuple(tuple(F(k, 10**6) for k in row) for row in ks))
    assert x.scale == 10**6 and not _int64_safe(3, max(map(abs, x.array.flat)))
    combo, val = _best_subset_python(x.array.tolist(), 20, 3)
    res = mvs_exact(x)
    assert res.simplex.vertex_indices == combo
    assert res.volume == F(val, 6 * x.scale ** 3)


def test_float_enumeration_in_chunks_matches_brute(chunk):
    x = float_points(12, 3, seed=5)
    res = mvs_exact(x)
    expect = max(
        itertools.combinations(range(12), 4),
        key=lambda c: abs(det([[x.points[i][k] - x.points[c[0]][k] for k in range(3)] for i in c[1:]])),
    )
    assert res.simplex.vertex_indices == expect


def test_exact_matches_brute_oracle():
    for trial in range(25):
        d = 2 + trial % 2
        n = 6 + trial % 5
        x = rational_points(n, d, seed=900 + trial)
        res = mvs_exact(x)
        vol, idx = brute_mvs(x)
        assert res.volume == vol
        assert simplex_volume(res.simplex) == vol
        # the lex tie-break: no earlier subset attains the same volume
        for cand in itertools.combinations(range(n), d + 1):
            if cand >= res.simplex.vertex_indices:
                break
            s = Simplex(d, tuple(x.points[i] for i in cand))
            assert simplex_volume(s) < vol


def test_huge_coordinates_fall_back_to_bigint_path():
    # numerators around 10^14 blow the int64 minor bound for d = 3
    rng = random.Random(4)
    pts = tuple(
        tuple(F(rng.randint(-10**14, 10**14)) for _ in range(3)) for _ in range(8)
    )
    x = PointSet(3, pts)
    res = mvs_exact(x)
    vol, idx = brute_mvs(x)
    assert res.volume == vol and res.simplex.vertex_indices == idx


@pytest.mark.parametrize("points", [rational_points, float_points], ids=["exact", "float"])
def test_dimension_seven_matches_brute(points):
    # d > 6 has no batched determinants: one determinant per subset, Bareiss
    # on ints or pivoted elimination on floats, equal bit for bit to the oracle.
    x = points(11, 7, seed=7)
    res = mvs_exact(x)
    vol, idx = brute_mvs(x)
    assert res.volume == vol
    assert res.simplex.vertex_indices == idx


def test_float_mode_matches_brute():
    x = float_points(10, 2, seed=31)
    res = mvs_exact(x)
    best = max(
        abs(det([
            [x.points[j][k] - x.points[i0][k] for k in range(2)]
            for j in (i1, i2)
        ])) / 2
        for i0, i1, i2 in itertools.combinations(range(10), 3)
    )
    assert res.volume == pytest.approx(best, rel=1e-12)


def test_enumeration_cap():
    x = rational_points(40, 3, seed=1)
    with pytest.raises(EnumerationCapError):
        mvs_exact(x, enum_cap=1000)


def test_degenerate_point_set():
    line = PointSet(2, tuple((F(i), F(3 * i)) for i in range(6)))
    with pytest.raises(DegeneratePointSetError):
        mvs_exact(line)
    with pytest.raises(DegeneratePointSetError):
        mvs_exact(PointSet(2, ((F(0), F(0)), (F(1), F(1)))))
    # Four equal float points: a subset that repeats one scores rounding noise.
    with pytest.raises(DegeneratePointSetError, match="do not affinely span"):
        mvs_exact(parse_points_csv(ROUNDING_CSV["dup7"], ScalarMode.FLOAT))


def test_reflected_vertex_tie():
    """Appending v_hat_0 creates a second optimum; slab max hits d + 2."""
    t = make_simplex(
        [(F(1), F(1), F(1)), (F(1), F(-1), F(-1)), (F(-1), F(1), F(-1)),
         (F(-1), F(-1), F(1))]
    )
    vh = reflect_vertex(t, 0)
    x = PointSet(3, t.vertices + (vh,))
    res = mvs_exact(x)
    # both (0,1,2,3) and (1,2,3,4) attain the max; lex order keeps the original
    assert res.simplex.vertex_indices == (0, 1, 2, 3)
    alt = Simplex(3, tuple(x.points[i] for i in (1, 2, 3, 4)))
    assert simplex_volume(alt) == res.volume
    hi = max(h for _, h in slab_kernel(res.simplex, x).slab())
    assert hi == 5  # exactly d + 2


def test_local_search_is_swap_locally_maximal():
    for seed in range(30):
        x = rational_points(30, 2, seed=2000 + seed)
        res = mvs_local_search(x, seed=seed)
        assert res.method == "local-search"
        rep = verify_local_maximality(res.simplex, x)
        assert rep.ok, f"seed {seed}: facet {rep.worst_facet} point {rep.worst_point}"


def test_local_search_volume_quality():
    # Swap-local optima carry no approximation guarantee, but on this
    # family they stay close; the floor and the bulk are frozen behavior.
    ratios = []
    for seed in range(40):
        x = rational_points(30, 2, seed=5000 + seed)
        local = mvs_local_search(x, seed=seed)
        exact = mvs_exact(x)
        ratio = local.volume / exact.volume
        assert ratio <= 1
        ratios.append(ratio)
    assert min(ratios) >= F(4, 5)
    assert sum(1 for r in ratios if r >= F(19, 20)) >= 35


def test_local_search_trace_is_strictly_increasing(monkeypatch):
    x = rational_points(25, 3, seed=77)
    res, trace = traced_local_search(monkeypatch, x, seed=1)
    assert all(b > a for a, b in zip(trace, trace[1:]))
    assert trace[-1] == res.volume
    assert res.swap_count == len(trace) - 1


def test_local_search_float_mode():
    x = float_points(25, 2, seed=8)
    res = mvs_local_search(x, seed=0)
    rep = verify_local_maximality(res.simplex, x, tol=1e-9)
    assert rep.ok


@pytest.mark.parametrize(
    "x",
    [
        PointSet(2, tuple((F(i), F(2 * i)) for i in range(5))),  # collinear
        PointSet(1, ((F(1),), (F(1),), (F(1),))),  # the farthest pair coincides
        FLOAT_LINE,  # the seed's Gram matrix is singular
        # a float copy of a chosen vertex is the best candidate by rounding
        parse_points_csv(ROUNDING_CSV["dup7"], ScalarMode.FLOAT),
    ],
    ids=["line", "same", "float-line", "float-duplicate"],
)
def test_local_search_rejects_sets_that_do_not_span(x):
    with pytest.raises(DegeneratePointSetError, match="do not affinely span"):
        mvs_local_search(x, seed=0)


def test_local_search_needs_d_plus_1_points():
    with pytest.raises(DegeneratePointSetError, match="need at least 4 points"):
        mvs_local_search(PointSet(3, ((F(0),) * 3, (F(1),) * 3)))
    x = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
    assert mvs_local_search(x).simplex.vertex_indices is not None


def test_float_rounding_alone_passes_the_check_at_tol_zero():
    # One vertex's own slab value rounds to -2.0000000000000004; the exact
    # value of the same binary rationals is -2.
    x = sample_body("square", 8, 2, 0, ScalarMode.FLOAT)
    t = mvs_local_search(x, seed=0).simplex
    assert min(lo for lo, _ in slab_kernel(t, x).slab()) < -2
    rep = verify_local_maximality(t, x, tol=0)
    assert rep.ok and rep.excess == 0.0
    assert isinstance(rep.excess, float)
    assert all(isinstance(v, float) for pair in rep.slab for v in pair)


def test_float_simplex_that_is_not_locally_maximal_fails_at_tol_zero():
    x = PointSet(2, ((0.0, 0.0), (0.125, 0.0), (0.0, 0.125), (4.0, 0.0), (0.0, 4.0)))
    t = Simplex(2, x.points[:3], (0, 1, 2))
    rep = verify_local_maximality(t, x, tol=0)
    assert not rep.ok
    assert isinstance(rep.excess, float) and rep.excess > 0
    assert rep.worst_point in (3, 4)


@pytest.mark.parametrize("name", sorted(revisiting_float_inputs()))
def test_float_search_that_revisits_a_simplex_breaks_down(name):
    x = revisiting_float_inputs()[name]
    with pytest.raises(NumericalBreakdownError, match="rerun in exact mode"):
        mvs_local_search(x, seed=0)


def test_scale_equivariance():
    x = rational_points(12, 2, seed=55)
    scaled = PointSet(2, tuple(tuple(7 * c for c in p) for p in x.points))
    a = mvs_exact(x)
    b = mvs_exact(scaled)
    assert a.simplex.vertex_indices == b.simplex.vertex_indices
    assert b.volume == 49 * a.volume


def test_translation_equivariance():
    x = rational_points(12, 3, seed=56)
    shift = (F(3), F(-5), F(11, 2))
    moved = PointSet(3, tuple(tuple(c + s for c, s in zip(p, shift)) for p in x.points))
    a = mvs_exact(x)
    b = mvs_exact(moved)
    assert a.simplex.vertex_indices == b.simplex.vertex_indices
    assert a.volume == b.volume


def test_local_maximality_counterexample_reported():
    # a deliberately small inner triangle inside a big square
    x = PointSet(
        2,
        (
            (F(0), F(0)), (F(1, 8), F(0)), (F(0), F(1, 8)),
            (F(4), F(0)), (F(0), F(4)), (F(4), F(4)),
        ),
    )
    t = Simplex(2, (x.points[0], x.points[1], x.points[2]), (0, 1, 2))
    rep = verify_local_maximality(t, x)
    assert not rep.ok
    assert rep.excess > 0
    assert rep.worst_point in (3, 4, 5)
    h = halfspace_form(t)
    assert h.value(rep.worst_facet, x.points[rep.worst_point]) > t.dim + 2
