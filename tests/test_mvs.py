import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from cover_cases import RIGHT, SQUARE, pair
from hard_inputs import points
from helpers import (
    brute_mvs,
    det,
    float_points,
    rational_points,
    traced_local_search,
)
from simplexcover.errors import DegeneratePointSetError, EnumerationCapError
from simplexcover.geometry import (
    PointSet,
    Simplex,
    halfspace_form,
    simplex_volume,
    slab_kernel,
)
from simplexcover.mvs import (
    _best_subset_python,
    mvs_exact,
    mvs_local_search,
    verify_local_maximality,
)
from simplexcover.sampling import sample_body
from simplexcover.scalars import ScalarMode

F = Fraction


def test_square_corners_volume_and_tiebreak():
    # all four triangles have volume 1/2; lex-smallest index tuple wins
    res = mvs_exact(SQUARE)
    assert res.volume == F(1, 2)
    assert res.simplex.vertex_indices == (0, 1, 2)
    assert res.method == "exact"


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


def test_reflected_vertex_tie():
    """Appending v_hat_0 creates a second optimum; slab max hits d + 2."""
    _, x = pair("tetra-reflected")
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
        points("line8"),  # the seed's Gram matrix is singular
        # a float copy of a chosen vertex is the best candidate by rounding
        points("dup7"),
    ],
    ids=["line", "same", "float-line", "float-duplicate"],
)
def test_local_search_rejects_sets_that_do_not_span(x):
    with pytest.raises(DegeneratePointSetError, match="do not affinely span"):
        mvs_local_search(x, seed=0)


def test_local_search_needs_d_plus_1_points():
    with pytest.raises(DegeneratePointSetError, match="need at least 4 points"):
        mvs_local_search(PointSet(3, ((F(0),) * 3, (F(1),) * 3)))
    assert mvs_local_search(PointSet(2, RIGHT.vertices)).simplex.vertex_indices is not None


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
