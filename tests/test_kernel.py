"""Oracle tests for the closed-form slab kernel and the routines built on it.

``slab_kernel`` replaces a simplex-method LP in ``min_dilation`` and the
per-facet Fraction loops of the slab checks, and ``dilation_lp`` is built
from it.  Every result here is compared with an oracle derived without the
kernel, from the halfspace form: ``solve_lp`` on ``halfspace_dilation_lp``,
and facet-by-facet scans over ``halfspace_form(...).value``.  Batched
kernels (``slab_kernels``, ``min_dilations``) are compared with the same
simplices one at a time, against ``reference_slab_kernel``.  The inputs are
deliberately not the friendly ones the MVS pipeline produces: arbitrary
(non-maximal) simplices, points far outside T, and coordinates far beyond
int64.
"""
import dataclasses
import enum
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    dense_dual,
    det,
    float_points,
    fraction_min_dilation,
    halfspace_dilation_lp,
    rational_points,
    reference_slab_kernel,
)
from simplexcover import (
    DilationSign,
    LPSolution,
    LPStatus,
    PointSet,
    ScalarMode,
    Simplex,
    centroid,
    check_certificate,
    dilation_lp,
    halfspace_form,
    john_positive_cover,
    make_simplex,
    min_dilation,
    min_dilations,
    simplex_volume,
    solve_lp,
    verify_local_maximality,
    verify_sandwich,
)
from simplexcover.counterexample import CounterexampleConfig, build_points, enumerate_triangles
from simplexcover.covering import _frame
from simplexcover.errors import DegenerateSimplexError, LPInternalError, SingularMatrixError
from simplexcover.geometry import slab_kernel, slab_kernels
from simplexcover.linalg import scaled_inverse

F = Fraction
DIMS = (1, 2, 3, 4, 5)


def _coord(rng: random.Random, kind: str) -> Fraction:
    if kind == "grid":
        return F(rng.randint(-64, 64), 64)
    if kind == "far":  # points up to 1000x the size of T
        return F(rng.randint(-64000, 64000), rng.randint(1, 64))
    # bigint: numerators and denominators well past int64
    return F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))


def random_instance(d: int, seed: int, kind: str):
    """A random non-degenerate simplex (not from x) and a point set x."""
    rng = random.Random(f"{kind}/{d}/{seed}")
    while True:
        verts = [tuple(_coord(rng, "grid" if kind == "far" else kind) for _ in range(d))
                 for _ in range(d + 1)]
        t = Simplex(d, tuple(verts))
        if simplex_volume(t) != 0:
            break
    n = rng.randint(1, 7)
    x = PointSet(d, [tuple(_coord(rng, kind) for _ in range(d)) for _ in range(n)])
    return t, x


CASES = [(d, seed, kind) for d in DIMS for kind in ("grid", "far", "bigint") for seed in range(3)]


def case_id(case):
    d, seed, kind = case
    return f"d{d}-{kind}-{seed}"


def reference_local_maximality(t: Simplex, x: PointSet):
    """The facet-by-facet scan: (slab, excess, worst_facet, worst_point)."""
    d = t.dim
    h = halfspace_form(t)
    worst, worst_facet, worst_point = -(d + 2), None, None
    slab = []
    for i in range(d + 1):
        vals = [h.value(i, p) for p in x.points]
        for j, val in enumerate(vals):
            excess = max(val - (d + 2), -d - val)
            if excess > worst:
                worst, worst_facet, worst_point = excess, i, j
        slab.append((min(vals), max(vals)))
    return slab, worst, worst_facet, worst_point


def floats(t: Simplex, x: PointSet):
    return (
        Simplex(t.dim, tuple(tuple(float(v) for v in p) for p in t.vertices)),
        PointSet(x.dim, [tuple(float(v) for v in p) for p in x.points]),
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_kernel_matches_halfspace_form(case):
    t, x = random_instance(*case)
    k = slab_kernel(t, x)
    h = halfspace_form(t)
    assert k.mode is ScalarMode.EXACT and isinstance(k.den, int) and k.den > 0
    assert _frame(k) == (centroid(t), h.normals)
    for i in range(t.dim + 1):
        for j, p in enumerate(x.points):
            assert isinstance(k.values[i][j], int)
            assert k.scalar(k.values[i][j]) == h.value(i, p)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_exact_kernel_keeps_its_integers(case):
    t, x = random_instance(*case)
    k = slab_kernel(t, x)
    d, S, D = t.dim, k.scale, k.den
    assert type(S) is int and S > 0
    assert tuple(tuple(F(v, S) for v in p) for p in k.scaled_vertices) == t.vertices
    # inverse / den inverts the homogenized vertex matrix ...
    homog = [[v[q] for v in k.scaled_vertices] for q in range(d)] + [[1] * (d + 1)]
    for i, r in enumerate(k.inverse):
        assert all(type(v) is int for v in r)
        assert [sum(r[q] * homog[q][j] for q in range(d + 1)) for j in range(d + 1)] == [
            D * (i == j) for j in range(d + 1)
        ]
        # ... and gives every slab value.
        for j, p in enumerate(x.points):
            scaled = [v * S for v in p] + [1]
            assert k.values[i][j] == D - (d + 1) * sum(a * b for a, b in zip(r, scaled))
    # A float kernel holds the same form in floats, at scale 1.0.
    tf, xf = floats(t, x)
    kf = slab_kernel(tf, xf)
    assert type(kf.scale) is float and kf.scale == 1.0
    assert kf.scaled_vertices == tf.vertices
    assert all(type(v) is float for p in kf.scaled_vertices for v in p)
    den, inverse = float_inverse(tf)
    assert (kf.den, kf.inverse) == (den, inverse)
    assert all(type(v) is float for r in kf.inverse for v in r)


def assert_matches_fraction_closed_form(t: Simplex, x: PointSet):
    for sign in DilationSign:
        got, want = min_dilation(t, x, sign), fraction_min_dilation(t, x, sign)
        assert (got.lam, got.translate, got.binding, got.lp_translate) == (
            want.lam, want.translate, want.binding, want.lp_translate)
        assert all(type(v) is Fraction for v in (got.lam,) + got.translate + got.lp_translate)


def _nondegenerate(d, verts):
    t = Simplex(d, tuple(verts))
    assume(simplex_volume(t) != 0)
    return t


@st.composite
def tied_instances(draw):
    """d = 1..5 on a 5-value grid, with repeated points, so that row maxima tie."""
    d = draw(st.integers(1, 5))
    coord = st.builds(F, st.integers(-2, 2))
    point = st.tuples(*[coord] * d)
    t = _nondegenerate(d, draw(st.lists(point, min_size=d + 1, max_size=d + 1)))
    pts = draw(st.lists(point, min_size=1, max_size=d + 4))
    return t, PointSet(d, pts + pts[: draw(st.integers(0, len(pts)))])


# Distinct primes near 10^6, 10^9 and 10^18: the common denominator of a
# point set drawn over them is their product.
PRIMES = (999983, 1000003, 1000000007, 1000000009, 10**18 + 3, 10**18 + 9)


@st.composite
def coprime_instances(draw):
    d = draw(st.integers(1, 5))
    coord = st.sampled_from(PRIMES).flatmap(
        lambda q: st.builds(F, st.integers(-3 * q, 3 * q), st.just(q))
    )
    point = st.tuples(*[coord] * d)
    t = _nondegenerate(d, draw(st.lists(point, min_size=d + 1, max_size=d + 1)))
    return t, PointSet(d, draw(st.lists(point, min_size=1, max_size=d + 3)))


@settings(max_examples=60, deadline=None)
@given(tied_instances())
def test_exact_dilation_matches_fraction_closed_form_on_ties(instance):
    assert_matches_fraction_closed_form(*instance)


@settings(max_examples=40, deadline=None)
@given(coprime_instances())
def test_exact_dilation_matches_fraction_closed_form_on_coprime_denominators(instance):
    assert_matches_fraction_closed_form(*instance)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 10**6).flatmap(
    lambda q: st.tuples(st.integers(1, q - 1), st.integers(1, q - 1), st.just(q))))
def test_exact_dilation_matches_fraction_closed_form_on_the_counterexample(pqr):
    p, r, q = pqr
    x = build_points(CounterexampleConfig(F(p, q), F(r, q)))
    try:
        triangles = enumerate_triangles(x)
    except DegenerateSimplexError:
        assume(False)
    for t in triangles:
        assert_matches_fraction_closed_form(t, x)


# Mixed denominators, small and past int64, for exact coordinates.
_DENOMS = (1, 2, 3, 7, 64, 10**6 + 3, 10**18 + 9)


@st.composite
def kernel_batches(draw):
    """A point set x (exact, or float at scale 1, 1e-160 or 1e160) in R^d,
    d = 1..5, and 1-12 simplices whose vertices are points of x or new
    points of x's kind.  In half the batches a member may be degenerate or
    of the wrong dimension."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        coord = st.sampled_from(_DENOMS).flatmap(
            lambda q: st.builds(F, st.integers(-3 * q, 3 * q), st.just(q)))
    else:
        scale = draw(st.sampled_from([1.0, 1e-160, 1e160]))
        coord = st.floats(-3, 3).map(lambda v: v * scale)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8))

    def simplices(dim, vertex):
        return st.lists(vertex, min_size=dim + 1, max_size=dim + 1).map(
            lambda vs: Simplex(dim, tuple(vs)))

    any_simplex = simplices(d, st.one_of(st.sampled_from(pts), st.tuples(*[coord] * d)))
    member = any_simplex.filter(lambda t: simplex_volume(t) != 0)
    if draw(st.booleans()):
        wrong = [e for e in (d - 1, d + 1) if e >= 1]
        member = st.one_of(
            member, member, member, any_simplex,
            st.sampled_from(wrong).flatmap(lambda e: simplices(e, st.tuples(*[coord] * e))),
        )
    return PointSet(d, pts), draw(st.lists(member, min_size=1, max_size=12))


def _hexed(v):
    """A scalar as a comparable key; floats by their hex form, so NaN,
    -0.0 and every last bit count."""
    return v.hex() if isinstance(v, float) else (type(v), v)


def _kernel_fields(k):
    return (
        k.mode, _hexed(k.den), _hexed(k.scale),
        [[_hexed(v) for v in row] for row in k.values.tolist()],
        [[_hexed(v) for v in p] for p in k.scaled_vertices],
        [[_hexed(v) for v in r] for r in k.inverse],
    )


def _dilation_fields(r):
    return (_hexed(r.lam), r.sign, [_hexed(v) for v in r.translate], r.binding,
            [_hexed(v) for v in r.lp_translate])


def _outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(kernel_batches())
def test_batched_kernels_equal_one_kernel_at_a_time(batch):
    x, simplices = batch
    with np.errstate(all="ignore"):  # 1e160 coordinates overflow in float
        alone = [_outcome(reference_slab_kernel, t, x) for t in simplices]
        failed = [a for a in alone if isinstance(a, tuple)]
        got = _outcome(slab_kernels, x, simplices)
        if failed:
            # The first member that fails raises what it raises alone.
            assert got == failed[0]
            return
        assert [_kernel_fields(k) for k in got] == [_kernel_fields(k) for k in alone]
        assert all(k.values.base is got[0].values.base is not None for k in got)  # one stack
        for sign in DilationSign:
            batched = _outcome(min_dilations, x, simplices, sign)
            one_by_one = [_outcome(min_dilation, t, x, sign) for t in simplices]
            failed = [r for r in one_by_one if isinstance(r, tuple)]
            if failed:
                assert batched == failed[0]
                continue
            assert [_dilation_fields(r) for r in batched] == [
                _dilation_fields(r) for r in one_by_one]
            if x.mode is ScalarMode.EXACT:
                assert [_dilation_fields(r) for r in batched] == [
                    _dilation_fields(fraction_min_dilation(t, x, sign)) for t in simplices]


@pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_tampered_kernel_integers_fail_the_integer_certificate(monkeypatch, row, sign):
    # One entry of the integer inverse off by one breaks y . G = -c.
    import simplexcover.covering as covering

    def tampered(t, x):
        k = slab_kernel(t, x)
        inverse = [list(r) for r in k.inverse]
        inverse[row][0] += 1
        return dataclasses.replace(k, inverse=tuple(map(tuple, inverse)))

    monkeypatch.setattr(covering, "slab_kernels", lambda x, ts: [tampered(t, x) for t in ts])
    t, x = random_instance(2, 0, "grid")
    with pytest.raises(LPInternalError, match="closed-form dilation failed its dual certificate"):
        min_dilation(t, x, sign)


@pytest.mark.parametrize("case", CASES, ids=case_id)
@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_min_dilation_matches_full_lp(case, sign):
    t, x = random_instance(*case)
    d = t.dim
    res = min_dilation(t, x, sign)
    full = halfspace_dilation_lp(t, x, sign)
    oracle = solve_lp(full)
    assert oracle.status is LPStatus.OPTIMAL
    assert res.lam == oracle.value
    # The optimum is unique: every binding row is tight at one translate.
    assert res.lp_translate == oracle.z[:d]
    cert = LPSolution(
        status=LPStatus.OPTIMAL, z=res.lp_translate + (res.lam,), value=res.lam,
        dual=dense_dual(res, len(x)),
    )
    assert check_certificate(full, cert, tol=0)
    assert all(isinstance(v, Fraction) for v in (res.lam,) + res.translate + res.lp_translate)
    assert len(res.binding) == d + 1 and all(type(j) is int for j in res.binding)


@pytest.mark.parametrize("den", [64, 10**6, 3**40], ids=["den64", "den1e6", "den3^40"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_dilation_lp_equals_the_halfspace_lp_row_for_row(d, den):
    # Every fifth simplex has vertices over 7, a denominator the points lack.
    rng = random.Random(f"lp/{d}/{den}")
    for seed in range(10):
        vden = 7 if seed % 5 == 0 else den
        while True:
            t = Simplex(d, tuple(tuple(F(rng.randint(-vden, vden), vden) for _ in range(d))
                                 for _ in range(d + 1)))
            if simplex_volume(t) != 0:
                break
        x = PointSet(d, [tuple(F(rng.randint(-3 * den, 3 * den), den) for _ in range(d))
                         for _ in range(rng.randint(1, 6))])
        for sign in DilationSign:
            lp, oracle = dilation_lp(t, x, sign), halfspace_dilation_lp(t, x, sign)
            assert (lp.num_vars, lp.objective) == (oracle.num_vars, oracle.objective)
            assert lp.rows == oracle.rows and lp.rhs == oracle.rhs
            assert all(isinstance(v, Fraction) for v in lp.rhs)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_local_maximality_matches_facet_scan(case):
    t, x = random_instance(*case)
    rep = verify_local_maximality(t, x)
    slab, excess, worst_facet, worst_point = reference_local_maximality(t, x)
    assert (rep.slab, rep.excess, rep.worst_facet, rep.worst_point) == (
        slab, excess, worst_facet, worst_point
    )
    assert rep.ok == (excess <= 0)
    assert verify_sandwich(t, x).local_maximality.slab == slab == slab_kernel(t, x).slab()


def test_ties_keep_the_first_point_and_facet():
    # Duplicated far points tie on every facet: the scan order keeps the
    # first facet and, within it, the first of the tied points.
    t = make_simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    far, near = (F(9), F(9)), (F(-9), F(-9))
    x = PointSet(2, [(F(0), F(0)), far, far, near, near])
    n = len(x)
    rep = verify_local_maximality(t, x)
    _, _, worst_facet, worst_point = reference_local_maximality(t, x)
    assert (rep.worst_facet, rep.worst_point) == (worst_facet, worst_point)
    h = halfspace_form(t)
    for sign, s in ((DilationSign.POSITIVE, 1), (DilationSign.NEGATIVE, -1)):
        dual = dense_dual(min_dilation(t, x, sign), n)
        for i in range(3):
            vals = [s * h.value(i, p) for p in x.points]
            assert [j for j in range(n) if dual[i * n + j]] == [vals.index(max(vals))]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_float_mode_matches_exact(case):
    t, x = random_instance(*case)
    tf, xf = floats(t, x)
    for sign in DilationSign:
        exact = min_dilation(t, x, sign)
        approx = min_dilation(tf, xf, sign)
        assert isinstance(approx.lam, float)
        assert abs(approx.lam - float(exact.lam)) <= 1e-9 * max(1.0, abs(float(exact.lam)))
    exact_slab = verify_local_maximality(t, x).slab
    float_slab = verify_local_maximality(tf, xf, tol=1e-9).slab
    for (lo, hi), (flo, fhi) in zip(exact_slab, float_slab):
        assert abs(flo - float(lo)) <= 1e-9 * max(1.0, abs(float(lo)))
        assert abs(fhi - float(hi)) <= 1e-9 * max(1.0, abs(float(hi)))


def float_inverse(t: Simplex):
    """(den, inverse) of t's float homogenized vertex matrix, den > 0."""
    d = t.dim
    verts = [[float(v) for v in p] for p in t.vertices]
    inv, den = scaled_inverse([[v[q] for v in verts] for q in range(d)] + [[1.0] * (d + 1)])
    return den, tuple(map(tuple, inv))


def scalar_slab_values(t: Simplex, x: PointSet):
    """Float slab numerators one entry at a time: (den, rows)."""
    d = t.dim
    den, inv = float_inverse(t)
    rows = []
    for r in inv:
        row = []
        for p in x.points:
            acc = 0
            for a, b in zip(r, p):
                acc = acc + a * float(b)
            row.append(den - (d + 1) * (acc + r[d]))
        rows.append(row)
    return den, rows


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_float_kernel_is_the_scalar_formula_bitwise(case):
    t, x = floats(*random_instance(*case))
    k = slab_kernel(t, x)
    den, rows = scalar_slab_values(t, x)
    assert k.values.dtype == np.float64 and k.values.shape == (t.dim + 1, len(x))
    assert type(k.den) is float and k.den == den
    as_hex = [[v.hex() for v in row] for row in k.values.tolist()]
    assert as_hex == [[v.hex() for v in row] for row in rows]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_exact_points_against_a_float_simplex_are_rounded_once(case):
    # The points' ints over their common denominator round like float(p).
    t, x = random_instance(*case)
    tf, xf = floats(t, x)
    mixed, plain = slab_kernel(tf, x), slab_kernel(tf, xf)
    assert mixed.mode is ScalarMode.FLOAT and mixed.values.dtype == np.float64
    assert mixed.values.tobytes() == plain.values.tobytes()
    assert type(mixed.den) is float and mixed.den == plain.den
    assert (mixed.scale, mixed.scaled_vertices, mixed.inverse) == (
        plain.scale, plain.scaled_vertices, plain.inverse)
    assert _frame(mixed) == _frame(plain)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_float_frame_is_the_eager_formula_bitwise(case):
    # The centroid and normals a float kernel once stored, computed as it
    # computed them: the vertices' sums over (d+1) * 1.0, and -(d+1) * 1.0
    # times each inverse row over den, all as float(num) / float(den).
    t, x = floats(*random_instance(*case))
    d = t.dim
    den, inv = float_inverse(t)
    verts = [[float(v) for v in p] for p in t.vertices]
    center = [float(sum(v[q] for v in verts)) / float((d + 1) * 1.0) for q in range(d)]
    normals = [[float(-(d + 1) * 1.0 * r[q]) / float(den) for q in range(d)] for r in inv]
    got_center, got_normals = _frame(slab_kernel(t, x))
    assert [v.hex() for v in got_center] == [v.hex() for v in center]
    assert [[v.hex() for v in a] for a in got_normals] == [[v.hex() for v in a] for a in normals]


def _leaves(obj):
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


@pytest.mark.parametrize("mode", list(ScalarMode), ids=lambda m: m.value)
def test_reports_hold_only_python_scalars(mode):
    # enum_cap=10 sends both modes through local search.
    x = float_points(40, 2, seed=3) if mode is ScalarMode.FLOAT else rational_points(40, 2, seed=3)
    cover = john_positive_cover(x, enum_cap=10)
    assert cover.mvs.method == "local-search"
    t = cover.mvs.simplex
    reports = [cover, verify_local_maximality(t, x)]
    reports += [min_dilation(t, x, sign) for sign in DilationSign]
    plain = (int, float, Fraction, bool, str, type(None))
    for leaf in _leaves(reports):
        assert type(leaf) in plain or isinstance(leaf, enum.Enum), type(leaf)


def test_degenerate_simplex_is_rejected():
    flat = Simplex(2, ((F(0), F(0)), (F(1), F(1)), (F(2), F(2))))
    with pytest.raises(DegenerateSimplexError):
        slab_kernel(flat, PointSet(2, [(F(0), F(0))]))


def test_scaled_inverse_is_exact():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det([[F(v) for v in row] for row in a]) == 0:
            with pytest.raises(SingularMatrixError):
                scaled_inverse(a)
            continue
        inv, den = scaled_inverse(a)
        assert isinstance(den, int) and den > 0
        assert den == abs(det([[F(v) for v in row] for row in a]))
        # Float input takes the same steps, so its denominator is positive too.
        assert scaled_inverse([[float(v) for v in row] for row in a])[1] > 0
        for i in range(n):
            for j in range(n):
                assert isinstance(inv[i][j], int)
                assert sum(F(a[i][k]) * F(inv[k][j], den) for k in range(n)) == (i == j)
