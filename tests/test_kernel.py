"""Oracle tests for the slab kernel and the routines built on it.

The first ten tests run on the (simplex, point set) pairs of ``COVERS``
(``tests/cover_cases.py``), each parametrized by row name, on the exact
pair and on its float twin:
- the kernel: ``test_kernel_matches_halfspace_form``,
  ``test_exact_kernel_keeps_its_integers``, and bit for bit in floats
  ``test_float_kernel_is_the_scalar_formula_bitwise``,
  ``test_float_frame_is_the_eager_formula_bitwise`` and
  ``test_exact_points_against_a_float_simplex_are_rounded_once``;
- the dilations: ``test_min_dilation_matches_full_lp`` and, for their
  certificate, ``test_certificate_matches_check_certificate`` (by sign);
- the slab checks: ``test_local_maximality_matches_facet_scan``;
- the float twin's lambda and slab: ``test_float_mode_matches_exact``;
- the paper's bounds where T is a maximum-volume simplex of X:
  ``test_theorem``.

Their oracles avoid the kernel: ``halfspace_form``'s values and normals,
the Fraction closed form ``fraction_min_dilation``, ``solve_lp`` on the
full dilation LP built from the halfspace form, facet-by-facet scans and
the scalar float formula.  The pairs are deliberately not only the
friendly ones the MVS pipeline produces: arbitrary (non-maximal)
simplices, points far outside T, coordinates far beyond int64 and ties.

Hypothesis draws more pairs for the dilation check (``check_dilation``):
tied row maxima, coprime denominators near 10^18 and the counterexample's
triangles.  Batched kernels (``slab_kernels``, ``min_dilations``) are
compared with the same simplices one at a time, against
``reference_slab_kernel``, and ``dilation_lp`` with the full LP built from
the halfspace form.  Tampered kernel integers must fail the integer
certificate, and non-finite float slab values the float one, in
``_certified`` and in ``check_certificate`` alike.
"""
import contextlib
import dataclasses
import enum
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cover_cases import COVERS, float_twin, pair
from helpers import (
    contains,
    covers,
    dense_dual,
    det,
    float_points,
    fraction_min_dilation,
    fraction_volume,
    halfspace_dilation_lp,
    rational_points,
    reference_slab_kernel,
)
from simplexcover import (
    DilationResult,
    DilationSign,
    PointSet,
    ScalarMode,
    Simplex,
    centroid,
    dilate_about_center,
    john_positive_cover,
    min_dilation,
    min_dilations,
    simplex_volume,
    verify_local_maximality,
)
from simplexcover.counterexample import CounterexampleConfig, build_points, enumerate_triangles
from simplexcover import covering
from simplexcover.covering import _certified, _facet_rows, _frame, dilation_lp, verify_sandwich
from simplexcover.errors import (
    DegenerateSimplexError,
    LPInternalError,
    NumericalBreakdownError,
    SingularMatrixError,
)
from simplexcover.geometry import halfspace_form, slab_kernel, slab_kernels
from simplexcover.linalg import scaled_inverse
from simplexcover.linprog import LPSolution, LPStatus, check_certificate, solve_lp

F = Fraction
ROWS = list(COVERS)


def _close(got: float, want: Fraction) -> bool:
    """A float within 1e-9 of an exact value, relative past 1."""
    return abs(got - float(want)) <= 1e-9 * max(1.0, abs(float(want)))


def _hex(rows):
    """Rows of floats by their hex form, so that every bit counts."""
    return [[v.hex() for v in row] for row in rows]


def float_inverse(t: Simplex):
    """(den, inverse) of float t's homogenized vertex matrix, den > 0."""
    d = t.dim
    inv, den = scaled_inverse([[v[q] for v in t.vertices] for q in range(d)] + [[1.0] * (d + 1)])
    return den, tuple(map(tuple, inv))


@pytest.mark.parametrize("name", ROWS)
def test_kernel_matches_halfspace_form(name):
    t, x = pair(name)
    k, h = slab_kernel(t, x), halfspace_form(t)
    assert k.mode is ScalarMode.EXACT and type(k.den) is int and k.den > 0
    assert _frame(k) == (centroid(t), h.normals)
    assert all(type(v) is int for row in k.values.tolist() for v in row)
    assert [[k.scalar(v) for v in row] for row in k.values.tolist()] == [
        [h.value(i, p) for p in x.points] for i in range(t.dim + 1)]


@pytest.mark.parametrize("name", ROWS)
def test_exact_kernel_keeps_its_integers(name):
    t, x = pair(name)
    k = slab_kernel(t, x)
    d, S, D = t.dim, k.scale, k.den
    assert type(S) is int and S > 0
    assert tuple(tuple(F(v, S) for v in p) for p in k.scaled_vertices) == t.vertices
    # inverse / den inverts the homogenized vertex matrix and gives every
    # slab value.
    homog = [[v[q] for v in k.scaled_vertices] for q in range(d)] + [[1] * (d + 1)]
    for i, r in enumerate(k.inverse):
        assert all(type(v) is int for v in r)
        assert [sum(r[q] * homog[q][j] for q in range(d + 1)) for j in range(d + 1)] == [
            D * (i == j) for j in range(d + 1)]
        assert k.values[i].tolist() == [
            D - (d + 1) * sum(a * b for a, b in zip(r, [v * S for v in p] + [1]))
            for p in x.points]
    # A float kernel holds the same form in floats, at scale 1.0.
    tf, xf = float_twin(t, x)
    kf = slab_kernel(tf, xf)
    assert type(kf.scale) is float and kf.scale == 1.0
    assert kf.scaled_vertices == tf.vertices
    assert (kf.den, kf.inverse) == float_inverse(tf)
    assert all(type(v) is float for r in kf.inverse for v in r)


@pytest.mark.parametrize("name", ROWS)
def test_float_kernel_is_the_scalar_formula_bitwise(name):
    # Float slab numerators one entry at a time, summed left to right.
    t, x = float_twin(*pair(name))
    d, k = t.dim, slab_kernel(t, x)
    den, inv = float_inverse(t)
    rows = []
    for r in inv:
        row = []
        for p in x.points:
            acc = 0
            for a, b in zip(r, p):
                acc = acc + a * b
            row.append(den - (d + 1) * (acc + r[d]))
        rows.append(row)
    assert k.values.dtype == np.float64 and k.values.shape == (d + 1, len(x))
    assert type(k.den) is float and k.den == den
    assert _hex(k.values.tolist()) == _hex(rows)


@pytest.mark.parametrize("name", ROWS)
def test_float_frame_is_the_eager_formula_bitwise(name):
    # The centroid and normals a float kernel once stored, computed as it
    # computed them: the vertices' sums over (d+1) * 1.0, and -(d+1) * 1.0
    # times each inverse row over den, all as float(num) / float(den).
    t, x = float_twin(*pair(name))
    d = t.dim
    den, inv = float_inverse(t)
    center = [float(sum(v[q] for v in t.vertices)) / float((d + 1) * 1.0) for q in range(d)]
    normals = [[float(-(d + 1) * 1.0 * r[q]) / float(den) for q in range(d)] for r in inv]
    got_center, got_normals = _frame(slab_kernel(t, x))
    assert _hex([got_center, *got_normals]) == _hex([center, *normals])


@pytest.mark.parametrize("name", ROWS)
def test_exact_points_against_a_float_simplex_are_rounded_once(name):
    # The points' ints over their common denominator round like float(p).
    t, x = pair(name)
    tf, xf = float_twin(t, x)
    mixed, plain = slab_kernel(tf, x), slab_kernel(tf, xf)
    assert mixed.mode is ScalarMode.FLOAT and mixed.values.dtype == np.float64
    assert mixed.values.tobytes() == plain.values.tobytes()
    assert type(mixed.den) is float and mixed.den == plain.den
    assert (mixed.scale, mixed.scaled_vertices, mixed.inverse) == (
        plain.scale, plain.scaled_vertices, plain.inverse)
    assert _frame(mixed) == _frame(plain)


def check_dilation(t: Simplex, x: PointSet, sign: DilationSign) -> DilationResult:
    """``min_dilation(t, x, sign)`` equals its Fraction closed form in all
    four fields, binds each facet's first point of largest value, and covers
    x, which lam * 99/100 at the same translate does not; returns it."""
    res, want = min_dilation(t, x, sign), fraction_min_dilation(t, x, sign)
    assert (res.lam, res.translate, res.binding, res.lp_translate) == (
        want.lam, want.translate, want.binding, want.lp_translate)
    assert all(type(v) is Fraction for v in (res.lam, *res.translate, *res.lp_translate))
    h, s = halfspace_form(t), 1 if sign is DilationSign.POSITIVE else -1
    for i, j in enumerate(res.binding):
        vals = [s * h.value(i, p) for p in x.points]
        assert j == vals.index(max(vals))
    assert covers(h, res, x)
    assert res.lam == 0 or not covers(h, res, x, res.lam * F(99, 100))
    return res


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_min_dilation_matches_full_lp(name, sign):
    row, (t, x) = COVERS[name], pair(name)
    res = check_dilation(t, x, sign)
    for field, value in row.pins.get(sign, {}).items():
        assert getattr(res, field) == value, field
    # The binding points are the whole dual of the full LP.
    full = halfspace_dilation_lp(t, x, sign)
    cert = LPSolution(status=LPStatus.OPTIMAL, z=res.lp_translate + (res.lam,),
                      value=res.lam, dual=dense_dual(res, len(x)))
    assert check_certificate(full, cert, tol=0)
    if row.full_lp:
        # The optimum is unique: every binding row is tight at one translate.
        oracle = solve_lp(full)
        assert (oracle.status, oracle.value) == (LPStatus.OPTIMAL, res.lam)
        assert oracle.z[:t.dim] == res.lp_translate


def certificate_verdicts(k, sign: DilationSign):
    """(``_certified``, ``check_certificate``) on kernel k's binding rows:
    the first as ``_kernel_dilations`` calls it, the second on the reduced
    LP that ``_facet_rows`` builds, at the same point with dual 1/(d+1)."""
    calls = []
    with pytest.MonkeyPatch.context() as m, contextlib.suppress(
            LPInternalError, NumericalBreakdownError):
        m.setattr(covering, "_certified", lambda *args: calls.append(args) or _certified(*args))
        covering._kernel_dilations([k], sign)
    (args,) = calls
    _, _, z, lam, _, tol = args
    n1, s = len(k.inverse), 1 if sign is DilationSign.POSITIVE else -1
    if k.mode is ScalarMode.EXACT:  # the integer point is the closed form times Q
        q = n1**3 * k.den * k.scale
        z, lam = tuple(F(v, q) for v in z), F(lam, q)
    binding = [[j] for j in np.argmax(s * k.values, axis=1).tolist()]
    reduced = _facet_rows(k, _frame(k)[1], s, binding)
    cert = LPSolution(status=LPStatus.OPTIMAL, z=z + (lam,), value=lam,
                      dual=(k.ratio(1, n1),) * n1)
    return _certified(*args), check_certificate(reduced, cert, tol)


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_certificate_matches_check_certificate(name, sign):
    t, x = pair(name)
    for k in (slab_kernel(t, x), slab_kernel(*float_twin(t, x))):
        assert certificate_verdicts(k, sign) == (True, True), k.mode


def reference_local_maximality(t: Simplex, x: PointSet):
    """The facet-by-facet scan: (slab, excess, worst_facet, worst_point),
    keeping the first facet and, within it, the first point of largest
    excess."""
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


@pytest.mark.parametrize("name", ROWS)
def test_local_maximality_matches_facet_scan(name):
    row, (t, x) = COVERS[name], pair(name)
    d = t.dim
    rep, sandwich = verify_local_maximality(t, x), verify_sandwich(t, x)
    slab, excess, worst_facet, worst_point = reference_local_maximality(t, x)
    assert (rep.slab, rep.excess, rep.worst_facet, rep.worst_point) == (
        slab, excess, worst_facet, worst_point)
    assert rep.ok == (excess <= 0) == sandwich.ok
    assert sandwich.local_maximality.slab == slab == slab_kernel(t, x).slab()
    assert sandwich.facet_slacks == [(lo + d, d + 2 - hi) for lo, hi in slab]
    assert row.fact is None or row.fact(t, x)


@pytest.mark.parametrize("name", ROWS)
def test_float_mode_matches_exact(name):
    t, x = pair(name)
    tf, xf = float_twin(t, x)
    for sign in DilationSign:
        approx = min_dilation(tf, xf, sign)
        assert type(approx.lam) is float
        assert _close(approx.lam, min_dilation(t, x, sign).lam)
    exact_slab = verify_local_maximality(t, x).slab
    float_slab = verify_local_maximality(tf, xf, tol=1e-9).slab
    assert len(float_slab) == t.dim + 1
    assert all(_close(f, e) for fs, es in zip(float_slab, exact_slab) for f, e in zip(fs, es))


@pytest.mark.parametrize("name", [name for name, row in COVERS.items() if row.maximal])
def test_theorem(name):
    # T is a maximum-volume simplex of X: lambda- <= d and lambda+ <= d+2,
    # the slab check passes and X lies in T's centered (d+2)-dilation.
    t, x = pair(name)
    d = t.dim
    assert all(fraction_volume(s) <= simplex_volume(t)
               for s in itertools.combinations(x.points, d + 1))
    for (tt, xx), tol in (((t, x), 0), (float_twin(t, x), 1e-9)):
        assert min_dilation(tt, xx, DilationSign.NEGATIVE).lam <= d + tol
        assert min_dilation(tt, xx, DilationSign.POSITIVE).lam <= d + 2 + tol
        assert verify_sandwich(tt, xx, tol=tol).ok
        h = halfspace_form(dilate_about_center(tt, d + 2))
        assert all(contains(h, p, tol=tol) for p in xx.points)


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
    for sign in DilationSign:
        check_dilation(*instance, sign)


@settings(max_examples=40, deadline=None)
@given(coprime_instances())
def test_exact_dilation_matches_fraction_closed_form_on_coprime_denominators(instance):
    for sign in DilationSign:
        check_dilation(*instance, sign)


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
    for t, sign in itertools.product(triangles, DilationSign):
        check_dilation(t, x, sign)


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


def _plus_one(rows, r: int):
    """rows with entry [r][0] one larger."""
    rows = [list(v) for v in rows]
    rows[r][0] += 1
    return tuple(map(tuple, rows))


TAMPERS = {
    "first-row": lambda k: dataclasses.replace(k, inverse=_plus_one(k.inverse, 0)),
    "last-row": lambda k: dataclasses.replace(k, inverse=_plus_one(k.inverse, -1)),
    "scaled-vertex": lambda k: dataclasses.replace(
        k, scaled_vertices=_plus_one(k.scaled_vertices, 0)),
}


@pytest.mark.parametrize("tamper", list(TAMPERS))
@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_tampered_kernel_integers_fail_the_integer_certificate(tamper, sign):
    # An inverse entry off by one breaks the normals' zero sum; a scaled
    # vertex off by one moves the closed-form point off a binding row.
    k = TAMPERS[tamper](slab_kernel(*pair("d2-grid-0")))
    assert certificate_verdicts(k, sign) == (False, False)
    with pytest.raises(LPInternalError, match="^closed-form dilation failed its dual certificate$"):
        covering._kernel_dilations([k], sign)


def _slab_value(k, value):
    """k with the first slab value replaced by ``value``."""
    values = k.values.copy()
    values[0, 0] = value
    return dataclasses.replace(k, values=values)


# Each float tamper by sign: a NaN or infinite largest slab value, or
# vertices whose last coordinate is 1e307 times larger, so that only the
# translate overflows.
FLOAT_TAMPERS = {
    "nan": lambda k, s: _slab_value(k, math.nan),
    "inf": lambda k, s: _slab_value(k, s * math.inf),
    "inf-translate": lambda k, s: dataclasses.replace(
        k, scaled_vertices=tuple((*v[:-1], 1e307 * v[-1]) for v in k.scaled_vertices)),
}


@pytest.mark.parametrize("tamper", list(FLOAT_TAMPERS))
@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_non_finite_float_kernels_fail_the_float_certificate(tamper, sign):
    s = 1 if sign is DilationSign.POSITIVE else -1
    k = FLOAT_TAMPERS[tamper](slab_kernel(*float_twin(*pair("d2-grid-0"))), s)
    assert certificate_verdicts(k, sign) == (False, False)
    with pytest.raises(NumericalBreakdownError,
                       match="^dilation certificate failed in float mode; rerun in exact mode$"):
        covering._kernel_dilations([k], sign)


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
