import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import barycentric_coordinates, contains, fraction_volume, reflect_vertex
from simplexcover.errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    InputFormatError,
    NumericalBreakdownError,
)
from simplexcover.geometry import (
    PointSet,
    Simplex,
    centroid,
    dilate_about_center,
    halfspace_form,
    make_simplex,
    simplex_volume,
    slab_kernel,
    vec_add,
    vec_scale,
    vec_sub,
)
from simplexcover.mvs import mvs_exact
from simplexcover.scalars import ScalarMode

F = Fraction

RIGHT_TRIANGLE = make_simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
TETRA = make_simplex(
    [(F(1), F(1), F(1)), (F(1), F(-1), F(-1)), (F(-1), F(1), F(-1)), (F(-1), F(-1), F(1))]
)


def random_simplex(d, seed):
    rng = random.Random(seed)
    while True:
        verts = [tuple(F(rng.randint(-40, 40), 8) for _ in range(d)) for _ in range(d + 1)]
        s = Simplex(d, tuple(verts))
        if simplex_volume(s) != 0:
            return s


def test_pointset_validation():
    with pytest.raises(DimensionMismatchError):
        PointSet(2, ((F(0), F(0)), (F(1),)))
    with pytest.raises(ValueError):
        PointSet(0, ())


def test_pointset_rejects_non_finite_floats():
    nan, inf = float("nan"), float("inf")
    for bad in (nan, inf, -inf):
        with pytest.raises(InputFormatError, match="non-finite"):
            mvs_exact(PointSet(2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (bad, 0.5))))
    # exact coordinates are never converted to float, so size is no problem
    huge = F(10**400, 3)
    assert PointSet(1, ((huge,), (-huge,))).points[0] == (huge,)


@pytest.mark.parametrize("dim, points, error", [
    (2, [(0.0, 0.0), (math.inf, 1.0), (1.0,)],
     (InputFormatError, "point 1 has a non-finite coordinate: (inf, 1.0)")),
    (1, [(0.0,), (math.inf, 1.0)],
     (DimensionMismatchError, "point 1 has 2 coordinates, expected 1")),
    # The non-finite float is reported before the huge int fails to convert.
    (1, [(10**400,), (math.inf,)],
     (InputFormatError, "point 1 has a non-finite coordinate: (inf,)")),
    (1, [(F(10**400, 3),), (0.5,)],
     (OverflowError, "integer division result too large for a float")),
    (2, [(1, 2), (0.5, math.nan), (-math.inf, 0.0)],
     (InputFormatError, "point 1 has a non-finite coordinate: (0.5, nan)")),
], ids=["non-finite-first", "length-first", "inf-before-overflow", "overflow", "nan"])
def test_pointset_reports_the_first_bad_point(dim, points, error):
    with pytest.raises(error[0]) as exc:
        PointSet(dim, points)
    assert str(exc.value) == error[1]


def test_pointset_takes_a_float_array():
    a = np.array([[0.5, -0.0], [3.0, 0.25]])
    x = PointSet(2, a)
    assert x == PointSet(2, ((0.5, -0.0), (3.0, 0.25)))
    assert all(type(v) is float for p in x.points for v in p)
    assert x.mode is ScalarMode.FLOAT and x.array.tolist() == a.tolist()
    a[0, 0] = 7.0  # the caller's array stays writeable and is not shared
    assert x.points[0][0] == 0.5 and x.array[0, 0] == 0.5
    with pytest.raises(InputFormatError, match="point 1 has a non-finite"):
        PointSet(2, np.array([[0.0, 0.0], [1.0, math.inf]]))


@pytest.mark.parametrize(
    "points, mode, scale, array",
    [
        (((1, -2), (3, 4)), ScalarMode.EXACT, 1, [[1, -2], [3, 4]]),
        (((F(1, 2), F(-2, 3)), (F(3), F(5, 4))), ScalarMode.EXACT, 12, [[6, -8], [36, 15]]),
        (((0.5, -2.0), (3.0, 0.25)), ScalarMode.FLOAT, 1, [[0.5, -2.0], [3.0, 0.25]]),
        (((F(1, 3), 2), (0.5, F(-7))), ScalarMode.FLOAT, 1, [[1 / 3, 2.0], [0.5, -7.0]]),
    ],
    ids=["int", "fraction", "float", "mixed"],
)
def test_pointset_numeric_form(points, mode, scale, array):
    x = PointSet(2, points)
    assert x.mode is mode
    assert type(x.scale) is int and x.scale == scale
    assert x.array.dtype == (object if mode is ScalarMode.EXACT else np.float64)
    assert x.array.shape == (2, 2) and x.array.tolist() == array
    plain = int if mode is ScalarMode.EXACT else float
    assert all(type(v) is plain for row in x.array.tolist() for v in row)
    # Derived, read-only and invisible to equality, hashing and reports.
    assert not x.array.flags.writeable
    with pytest.raises(ValueError):
        x.array[0, 0] = 0
    for name in ("mode", "array", "scale"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
    assert [f.name for f in dataclasses.fields(PointSet)] == ["dim", "points"]
    assert x == PointSet(2, points) and hash(x) == hash(PointSet(2, points))


def test_simplex_requires_d_plus_1_vertices():
    with pytest.raises(ValueError):
        Simplex(2, ((F(0), F(0)), (F(1), F(0))))


def test_make_simplex_rejects_degenerate():
    with pytest.raises(DegenerateSimplexError):
        make_simplex([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_make_simplex_rejects_non_finite(bad):
    with pytest.raises(InputFormatError, match="non-finite"):
        make_simplex([(0.0, 0.0), (1.0, 0.0), (bad, 1.0)])


def test_volume_known_values():
    assert simplex_volume(RIGHT_TRIANGLE) == F(1, 2)
    assert simplex_volume(TETRA) == F(8, 3)
    seg = make_simplex([(F(-3),), (F(5),)])
    assert simplex_volume(seg) == 8


# Exactly, twice its area is about 3.9e-17; a pivoted float determinant
# of its difference rows gives 0.0.
NEAR_FLAT = [
    (-0.10101787042252375, 0.3031859454455259),
    (-0.913298696874054, -0.6401191015104615),
    (-0.5700667549749437, -0.24152244315482463),
]


def test_near_flat_float_triangle_is_a_simplex():
    t = make_simplex(NEAR_FLAT)
    exact = fraction_volume([tuple(map(F, p)) for p in NEAR_FLAT])
    assert simplex_volume(t) == float(exact)
    assert 1.9e-17 < simplex_volume(t) < 2e-17
    # The float kernel rounds it to a singular matrix.
    with pytest.raises(NumericalBreakdownError, match="rerun in exact mode$"):
        slab_kernel(t, PointSet(2, NEAR_FLAT))


def test_float_volume_out_of_range():
    assert simplex_volume(make_simplex([(0.0, 0.0), (1e200, 0.0), (0.0, 1e200)])) == math.inf
    # A volume that underflows to 0.0 is no degeneracy.
    t = make_simplex([(0.0, 0.0), (1e-200, 0.0), (0.0, 1e-200)])
    assert simplex_volume(t) == 0.0
    with pytest.raises(NumericalBreakdownError, match="rerun in exact mode$"):
        slab_kernel(t, PointSet(2, t.vertices))
    with pytest.raises(DegenerateSimplexError):
        slab_kernel(Simplex(2, ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0))), PointSet(2, [(0.0, 0.0)]))


def test_numpy_integer_vertices_are_float_mode():
    # numpy ints are not Python ints, so they are read as floats.
    t = make_simplex(list(np.array([[0, 0], [3, 0], [0, 2]])))
    assert simplex_volume(t) == 3.0
    with pytest.raises(DegenerateSimplexError):
        make_simplex(list(np.array([[0, 0], [1, 1], [2, 2]])))


def test_make_simplex_takes_a_numpy_array():
    arr = np.array([[0, 0], [3, 0], [0, 2]])
    t, rows = make_simplex(arr), make_simplex(list(arr))
    assert t.vertices == rows.vertices
    assert simplex_volume(t) == simplex_volume(rows) == 3.0


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_volume_is_the_fraction_determinant(d):
    rng = random.Random(d)
    for _ in range(20):
        verts = [tuple(F(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(d))
                 for _ in range(d + 1)]
        assert simplex_volume(Simplex(d, verts)) == fraction_volume(verts)
        floats = [tuple(rng.uniform(-1, 1) for _ in range(d)) for _ in range(d + 1)]
        expect = fraction_volume([tuple(map(F, p)) for p in floats])
        assert simplex_volume(Simplex(d, floats)) == float(expect)


def test_centroid():
    assert centroid(RIGHT_TRIANGLE) == (F(1, 3), F(1, 3))
    assert centroid(TETRA) == (F(0), F(0), F(0))


def test_halfspace_form_identities():
    """a_i.(v_j - c) is 1 off the facet's vertex and -d at it."""
    for s in (RIGHT_TRIANGLE, TETRA, random_simplex(4, 5)):
        d = s.dim
        h = halfspace_form(s)
        for i in range(d + 1):
            for j, v in enumerate(s.vertices):
                val = h.value(i, v)
                assert val == (-d if i == j else 1)
        assert h.offsets == (F(1),) * (d + 1)


def test_reflect_vertex_factor():
    # v_hat = c - ((d+2)/d)(v - c); its facet value must be exactly d+2
    for s in (RIGHT_TRIANGLE, TETRA):
        d = s.dim
        h = halfspace_form(s)
        c = centroid(s)
        for i, v in enumerate(s.vertices):
            vh = reflect_vertex(s, i)
            assert vh == vec_sub(c, vec_scale(vec_sub(v, c), F(d + 2, d)))
            assert h.value(i, vh) == d + 2


def test_dilate_about_center():
    s2 = dilate_about_center(RIGHT_TRIANGLE, 2)
    assert simplex_volume(s2) == 4 * simplex_volume(RIGHT_TRIANGLE)
    assert centroid(s2) == centroid(RIGHT_TRIANGLE)
    with pytest.raises(ValueError):
        dilate_about_center(RIGHT_TRIANGLE, 0)


def test_negative_dilation_reflects():
    s = dilate_about_center(TETRA, -3)
    h = halfspace_form(s)
    # -3 T contains T for the John chain (d = 3 case)
    for v in TETRA.vertices:
        assert contains(h, v)


def test_reflect_through_centroid_is_dilation_by_minus_one():
    for t in (RIGHT_TRIANGLE, TETRA):
        c = centroid(t)
        s = dilate_about_center(t, -1)
        assert s.vertices == tuple(vec_sub(vec_scale(c, 2), v) for v in t.vertices)
        assert simplex_volume(s) == simplex_volume(t)


def test_contains():
    h = halfspace_form(RIGHT_TRIANGLE)
    assert contains(h, (F(1, 4), F(1, 4)))
    assert contains(h, (F(0), F(0)))  # vertex: boundary counts
    assert not contains(h, (F(1), F(1)))
    c = centroid(RIGHT_TRIANGLE)
    far = vec_add(c, vec_scale(vec_sub(RIGHT_TRIANGLE.vertices[0], c), 2))
    assert not contains(h, far)
    with pytest.raises(DimensionMismatchError):
        contains(h, (F(0),))


def test_contains_float_tolerance():
    t = make_simplex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    h = halfspace_form(t)
    assert contains(h, (0.5 + 1e-12, 0.5 - 1e-12), tol=1e-9)
    assert not contains(h, (0.51, 0.51), tol=1e-9)


def test_slab_bounds_on_vertices():
    # the simplex against its own vertices: every facet sees [-d, 1]
    for s in (RIGHT_TRIANGLE, TETRA, random_simplex(5, 9)):
        d = s.dim
        x = PointSet(d, s.vertices)
        assert slab_kernel(s, x).slab() == [(F(-d), F(1))] * (d + 1)


def test_slab_detects_points_beyond_reflected_vertex():
    s = RIGHT_TRIANGLE
    h = halfspace_form(s)
    c = centroid(s)
    beyond = vec_sub(c, vec_scale(vec_sub(s.vertices[0], c), F(5, 2)))  # past (d+2)/d = 2
    x = PointSet(2, s.vertices + (beyond,))
    lo, hi = slab_kernel(s, x).slab()[0]
    assert hi == F(5) and hi > s.dim + 2
    assert h.value(0, beyond) == F(5)


def test_barycentric_membership_agrees_with_halfspaces():
    rng = random.Random(17)
    for d, seed in ((2, 0), (3, 1), (4, 2)):
        s = random_simplex(d, seed)
        h = halfspace_form(s)
        for _ in range(250):
            p = tuple(F(rng.randint(-48, 48), 16) for _ in range(d))
            bc = barycentric_coordinates(s, p)
            assert (min(bc) >= 0) == contains(h, p)
            # reconstruction: sum b_i v_i = p and sum b_i = 1
            assert sum(bc) == 1
            for k in range(d):
                assert sum(b * v[k] for b, v in zip(bc, s.vertices)) == p[k]


coord = st.fractions(
    min_value=-8, max_value=8, max_denominator=16
)


@settings(deadline=None, max_examples=60)
@given(
    verts=st.lists(st.tuples(coord, coord), min_size=3, max_size=3),
    lam=st.fractions(min_value=-4, max_value=4, max_denominator=8),
    shift=st.tuples(coord, coord),
)
def test_volume_scaling_and_translation_invariance(verts, lam, shift):
    s = Simplex(2, tuple(verts))
    vol = simplex_volume(s)
    moved = Simplex(2, tuple(vec_add(v, shift) for v in s.vertices))
    assert simplex_volume(moved) == vol
    if vol != 0 and lam != 0:
        assert simplex_volume(dilate_about_center(s, lam)) == abs(lam) ** 2 * vol


@settings(deadline=None, max_examples=40)
@given(verts=st.lists(st.tuples(coord, coord), min_size=3, max_size=3))
def test_halfspace_form_recovers_membership_of_centroid(verts):
    s = Simplex(2, tuple(verts))
    if simplex_volume(s) == 0:
        with pytest.raises(DegenerateSimplexError):
            halfspace_form(s)
    else:
        h = halfspace_form(s)
        assert contains(h, centroid(s))
        assert all(h.value(i, centroid(s)) == 0 for i in range(3))
