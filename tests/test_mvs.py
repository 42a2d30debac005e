import hashlib
import itertools
import random
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from helpers import (
    FLOAT_LINE,
    ROUNDING_CSV,
    brute_mvs,
    det,
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
from simplexcover.linalg import int_det_bareiss
from simplexcover.mvs import (
    _best_subset_numpy,
    _best_subset_python,
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


@pytest.fixture
def walk_spy(monkeypatch):
    """Record, per exact enumeration, whether the walk took the rounding
    filter (e > 0) and which subsets it rescored with Python ints."""
    seen = {"filtered": [], "rescored": []}
    bound, first_max = mvs._rounding_bound, mvs._first_max

    def spy_bound(d):
        seen["filtered"].append(True)
        return bound(d)

    def spy_first_max(P, combos):
        combos = list(combos)
        seen["rescored"].append(combos)
        return first_max(P, combos)

    monkeypatch.setattr(mvs, "_rounding_bound", spy_bound)
    monkeypatch.setattr(mvs, "_first_max", spy_first_max)
    return seen


def _ints(d, rows):
    return PointSet(d, tuple(tuple(F(v) for v in row) for row in rows))


def _abs_det(P, combo):
    return abs(int_det_bareiss([[a - b for a, b in zip(P[i], P[combo[0]])] for i in combo[1:]]))


def test_walk_exactness_bound_thresholds(walk_spy):
    # The guard is now e = 0: the walk is exact without a filter when every
    # intermediate is an integer below 2^53, i.e. d! r^d < 2^53 for the
    # translated integers in [0, r].  The benchmark's 1/64 grids (r <= 128,
    # d <= 5) stay exact; d = 6 at 10^9 takes the filter.
    for d, r, filtered in ((2, 64, False), (5, 128, False), (6, 10**9, True)):
        walk_spy["filtered"].clear()
        rng = random.Random(d)
        rows = [[0] * d, [r] * d] + [[rng.randint(0, r) for _ in range(d)] for _ in range(d + 2)]
        combo, val = _best_subset_numpy(_ints(d, rows).array, len(rows), d)
        assert (combo, val) == _best_subset_python(rows, len(rows), d)
        assert bool(walk_spy["filtered"]) is filtered


@pytest.fixture(params=[None, 3, 40], ids=["chunk-default", "chunk-3", "chunk-40"])
def chunk(request, monkeypatch):
    """Rerun a test with chunks of a few rows, so that the walk over facets
    crosses many chunk boundaries."""
    if request.param is not None:
        monkeypatch.setattr(mvs, "_CHUNK", request.param)


def _largest_exact_range(d):
    lo, hi = 1, 2**53  # d! lo^d < 2^53 <= d! hi^d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if factorial(d) * mid**d < 2**53 else (lo, mid)
    return lo


@pytest.mark.parametrize("d", range(1, 8))
def test_walk_exactness_bound_boundary(d, walk_spy, monkeypatch):
    # At the largest range r with e = 0 the walk is exact and rescores only
    # exact ties of the maximum; at r + 1 it takes the rounding filter.  Both
    # agree with Bareiss in index tuple and value, also one facet per chunk.
    # Vertices of the cube [0, r]^d, among them 0, r e_i and r (1, ..., 1),
    # tie often.
    a = _largest_exact_range(d)
    rng = random.Random(d)
    pattern = [[0] * d, [1] * d] + [[int(i == k) for i in range(d)] for k in range(d)]
    pattern.insert(rng.randrange(len(pattern)), [rng.randint(0, 1) for _ in range(d)])
    for chunk_size, (r, filtered) in itertools.product((mvs._CHUNK, 1), ((a, False), (a + 1, True))):
        monkeypatch.setattr(mvs, "_CHUNK", chunk_size)
        rows = [[r * v for v in row] for row in pattern]
        n = len(rows)
        expect = _best_subset_python(rows, n, d)
        walk_spy["filtered"].clear()
        walk_spy["rescored"].clear()
        combo, val = _best_subset_numpy(_ints(d, rows).array, n, d)
        assert val > 0
        assert (combo, val) == expect
        assert bool(walk_spy["filtered"]) is filtered
        (rescored,) = walk_spy["rescored"]
        assert combo in rescored
        if not filtered:
            assert all(_abs_det(rows, c) == val for c in rescored)


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
def test_decimal_set_matches_bareiss(seed, chunk, walk_spy):
    # The exact-cover benchmark's decimal shape: 20 points of R^3 written
    # with 6 decimals.  Their integers span about 2 * 10^6, so 3! r^3 passes
    # 2^53 and the walk takes the rounding filter.
    rng = random.Random(seed)
    ks = [[rng.randint(-10**6, 10**6) for _ in range(3)] for _ in range(20)]
    ks[0][0] = 10**6 - 1
    x = PointSet(3, tuple(tuple(F(k, 10**6) for k in row) for row in ks))
    assert x.scale == 10**6
    combo, val = _best_subset_python(x.array.tolist(), 20, 3)
    res = mvs_exact(x)
    assert walk_spy["filtered"]
    assert res.simplex.vertex_indices == combo
    assert res.volume == F(val, 6 * x.scale ** 3)


def _as_exact(x):
    """The binary rationals that the floats of x denote, as an exact PointSet."""
    return PointSet(x.dim, tuple(tuple(map(F, p)) for p in x.points))


def _assert_float_matches_exact(x):
    """Float ``mvs_exact`` of x equals exact ``mvs_exact`` of its binary
    rationals: the same index tuple, and the exact volume rounded once
    (inf past the float range)."""
    res, exact = mvs_exact(x), mvs_exact(_as_exact(x))
    assert res.simplex.vertex_indices == exact.simplex.vertex_indices
    try:
        volume = float(exact.volume)
    except OverflowError:
        volume = float("inf")
    assert isinstance(res.volume, float) and res.volume == volume


def test_float_enumeration_in_chunks_matches_brute(chunk):
    x = float_points(12, 3, seed=5)
    _assert_float_matches_exact(x)
    _, idx = brute_mvs(_as_exact(x))
    assert mvs_exact(x).simplex.vertex_indices == idx


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


def test_huge_coordinates_take_the_rounding_filter(walk_spy):
    # Numerators around 10^14 pass the e = 0 bound for d = 3, so the walk
    # takes the rounding filter and rescores its candidates in Python ints.
    rng = random.Random(4)
    pts = tuple(
        tuple(F(rng.randint(-10**14, 10**14)) for _ in range(3)) for _ in range(8)
    )
    x = PointSet(3, pts)
    res = mvs_exact(x)
    vol, idx = brute_mvs(x)
    assert res.volume == vol and res.simplex.vertex_indices == idx
    assert walk_spy["filtered"] and idx in walk_spy["rescored"][0]


@pytest.mark.parametrize("d", range(1, 6))
def test_filter_separates_determinants_one_apart(d, chunk, walk_spy):
    # The points 0, L and -1 on the first axis, plus e_2, ..., e_d: the
    # simplices that drop one of the three have |det| L, 1 and L + 1, and
    # every other one is flat.  L and L + 1 are the same float64, so only
    # the exact rescoring finds that the lexicographically last one wins.
    L = 2**61 + 12345
    assert float(L) == float(L + 1)
    rows = [[t] + [0] * (d - 1) for t in (0, L, -1)]
    rows += [[0] * d for _ in range(d - 1)]
    for k in range(1, d):
        rows[2 + k][k] = 1
    n = len(rows)
    res = mvs_exact(_ints(d, rows))
    assert res.simplex.vertex_indices == tuple(range(1, n)) == _best_subset_python(rows, n, d)[0]
    assert res.volume == F(L + 1, factorial(d))
    assert walk_spy["filtered"]


@pytest.mark.parametrize("seed", [10, 13, 593])
def test_float_scores_reverse_near_2_60(seed, chunk, walk_spy):
    # A triangle with coordinates near 2^60 and a copy moved by at most 3 per
    # coordinate: float64 determinants of the points pick a wrong triangle,
    # and a rounding bound 100 times smaller than the walk's misses the
    # right one.  The filter keeps it, and Bareiss agrees.
    rng = random.Random(seed)
    base = [[rng.randint(0, 2**60) for _ in range(2)] for _ in range(3)]
    rows = base + [[v + rng.randint(-3, 3) for v in p] for p in base]
    rng.shuffle(rows)
    expect = _best_subset_python(rows, 6, 2)
    P = np.array(rows, dtype=float).tolist()
    by_float_det = max(
        itertools.combinations(range(6), 3),
        key=lambda c: abs(det([[P[i][k] - P[c[0]][k] for k in range(2)] for i in c[1:]])),
    )
    assert by_float_det != expect[0]
    assert _best_subset_numpy(_ints(2, rows).array, 6, 2) == expect
    assert walk_spy["filtered"]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_ties_rescore_one_subset(d, chunk, walk_spy):
    # The cube's corners, written four times over: the maximum ties 4^(d+1)
    # ways or more.  The first maximum takes the first copies, the corners'
    # own indices, and an exact walk rescores only that subset.
    corners = [list(c) for c in itertools.product((0, 1), repeat=d)]
    expect = _best_subset_python(corners, len(corners), d)
    walk_spy["rescored"].clear()
    rows = corners * 4
    assert _best_subset_numpy(_ints(d, rows).array, len(rows), d) == expect
    assert [len(c) for c in walk_spy["rescored"]] == [1]
    assert not walk_spy["filtered"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cluster_far_from_the_origin(d, chunk, walk_spy):
    # Integers near 10^15 with offsets below 50: translating by the column
    # minima leaves a range that the e = 0 bound covers, so no filter runs.
    rng = random.Random(d)
    rows = [[10**15 + rng.randint(-50, 50) for _ in range(d)] for _ in range(d + 6)]
    n = len(rows)
    combo, val = _best_subset_numpy(_ints(d, rows).array, n, d)
    assert (combo, val) == _best_subset_python(rows, n, d)
    assert not walk_spy["filtered"]


def test_denominators_three_to_the_forty(chunk, walk_spy):
    # Numerators up to 3^40 > 2^63 round on the way into float64.
    rng = random.Random(40)
    m = 3**40
    x = PointSet(3, tuple(tuple(F(rng.randint(-m, m), m) for _ in range(3)) for _ in range(10)))
    assert x.scale == m
    res = mvs_exact(x)
    vol, idx = brute_mvs(x)
    assert (res.volume, res.simplex.vertex_indices) == (vol, idx)
    assert walk_spy["filtered"]


@pytest.mark.parametrize("d", [2, 3])
def test_integers_near_1e200(d, chunk):
    # Coordinates near 10^200 next to small ones: scaling into [0, 1) must not
    # overflow, and the products of tiny scaled values underflow silently.
    rng = random.Random(200 + d)
    rows = [
        [rng.choice((rng.randint(-10**200, 10**200), rng.randint(-5, 5))) for _ in range(d)]
        for _ in range(d + 6)
    ]
    n = len(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _best_subset_numpy(_ints(d, rows).array, n, d)
    assert got == _best_subset_python(rows, n, d)


@pytest.mark.parametrize("d", [2, 3])
def test_float_exponents_1e200_and_1e_minus_200(d):
    # Float coordinates near 1e200 next to ones near 1e-200: their binary
    # rationals clear to integers of ~1,330 bits over one power-of-two scale,
    # and the volume, near 1e200^d, rounds to inf.
    rng = random.Random(300 + d)
    x = PointSet(d, [tuple(rng.uniform(-1, 1) * rng.choice((1e200, 1e-200)) for _ in range(d))
                     for _ in range(d + 6)])
    _assert_float_matches_exact(x)
    assert mvs_exact(x).volume == float("inf")


@pytest.mark.parametrize("d", [2, 3])
def test_near_flat_set_rescores_every_subset(d, chunk, walk_spy):
    # Points i M (1, ..., 1) plus offsets in {0, 1, 2} with M = 10^30: every
    # exact determinant is far below the rounding bound, so every subset is
    # a candidate.  The walk rescores all of them and stays exact.
    rng = random.Random(d)
    M = 10**30
    rows = [[i * M + rng.randint(0, 2) for _ in range(d)] for i in range(12)]
    n = len(rows)
    combo, val = _best_subset_numpy(_ints(d, rows).array, n, d)
    assert val > 0
    assert walk_spy["rescored"][0] == list(itertools.combinations(range(n), d + 1))
    assert (combo, val) == _best_subset_python(rows, n, d)


# Recorded from the Python-int walk, which took 10.5 s on this input.
PINNED_MANY_DENOMINATORS = (
    (0, 1, 4, 6, 16, 19),
    "4ea16346e0f1dea4380c0375696e0e245f3a11d802185de5dbc464a56532b7db",
)


def test_many_large_denominators_pinned():
    # Fraction(k, m) with m up to 10^6 per coordinate: the common denominator
    # has hundreds of digits.  The answer is pinned from the object-dtype
    # Python-int walk that the float64 walk replaced.
    rng = random.Random(5)
    pts = []
    for _ in range(20):
        row = []
        for _ in range(5):
            m = rng.randint(1, 10**6)
            row.append(F(rng.randint(-m, m), m))
        pts.append(tuple(row))
    x = PointSet(5, tuple(pts))
    res = mvs_exact(x)
    assert res.simplex.vertex_indices == PINNED_MANY_DENOMINATORS[0]
    assert hashlib.sha256(str(res.volume).encode()).hexdigest() == PINNED_MANY_DENOMINATORS[1]


@pytest.mark.parametrize("points", [rational_points, float_points], ids=["exact", "float"])
def test_dimension_seven_matches_brute(points):
    # d = 7, the walk's largest dimension, whose facet cofactors are 6 x 6
    # minors.  Float input is enumerated on its binary rationals, so it
    # matches exact mode on them.
    x = points(11, 7, seed=7)
    if x.mode is ScalarMode.FLOAT:
        _assert_float_matches_exact(x)
        x = _as_exact(x)
    res = mvs_exact(x)
    vol, idx = brute_mvs(x)
    assert res.volume == vol
    assert res.simplex.vertex_indices == idx


def _differential_set(seed):
    """A seeded float set for the float-versus-exact differential: d = 1..8,
    and uniform, with repeated points, or within ~1e-14 of a hyperplane."""
    rng = random.Random(seed)
    d, kind = 1 + seed % 8, ("uniform", "repeats", "flat")[seed // 8 % 3]
    n = d + 1 + rng.randint(0, 3 if d > 5 else 6)
    pts = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n)]
    if kind == "repeats":
        for i in rng.sample(range(n), rng.randint(1, n - 1)):
            pts[i] = list(rng.choice(pts))
    elif kind == "flat":
        a = [rng.uniform(-1, 1) for _ in range(d)]
        for p in pts:
            p[-1] = sum(c * v for c, v in zip(a, p[:-1])) + a[-1] + rng.uniform(-1e-14, 1e-14)
    return PointSet(d, tuple(map(tuple, pts)))


def test_float_matches_exact_on_binary_rationals():
    # 304 seeded sets, d = 1..8, n up to d + 7: float mvs_exact equals exact
    # mvs_exact on the same binary rationals in tuple, float(volume) and
    # outcome, and the tuple is the first maximum of direct enumeration.
    outcomes = {"ok": 0, "degenerate": 0}
    for seed in range(304):
        x = _differential_set(seed)
        xe = _as_exact(x)
        try:
            exact = mvs_exact(xe)
        except DegeneratePointSetError:
            with pytest.raises(DegeneratePointSetError, match="do not affinely span"):
                mvs_exact(x)
            outcomes["degenerate"] += 1
            continue
        _assert_float_matches_exact(x)
        combo, _ = _best_subset_python(xe.array.tolist(), len(x), x.dim)
        assert exact.simplex.vertex_indices == combo
        outcomes["ok"] += 1
    assert min(outcomes.values()) >= 20


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
    # Seven float points of R^4, four of them equal: only four are distinct,
    # so every subset's exact determinant is 0.
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
