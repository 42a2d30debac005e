"""Deterministic body samplers."""
import math
from fractions import Fraction

import pytest

from cover_cases import TETRA
from helpers import point_in_simplex
from simplexcover import InputFormatError, ScalarMode, make_simplex, sample_body
import simplexcover.sampling as sampling
from simplexcover.sampling import BODIES, _GRID

F = Fraction


def test_same_seed_same_points():
    for body in ("square", "disk", "annulus"):
        a = sample_body(body, 10, 2, seed=42)
        b = sample_body(body, 10, 2, seed=42)
        assert a.points == b.points
    assert sample_body("square", 10, 2, seed=1).points != sample_body(
        "square", 10, 2, seed=2
    ).points


def test_square_exact_lands_on_grid():
    x = sample_body("square", 20, 3, seed=7, mode=ScalarMode.EXACT)
    assert len(x) == 20 and x.dim == 3
    for p in x.points:
        for c in p:
            assert isinstance(c, Fraction)
            assert -1 <= c <= 1
            assert _GRID % c.denominator == 0


def test_square_float_range():
    x = sample_body("square", 50, 4, seed=0)
    assert all(isinstance(c, float) and -1.0 <= c <= 1.0 for p in x.points for c in p)


@pytest.mark.parametrize("mode", [ScalarMode.FLOAT, ScalarMode.EXACT])
def test_disk_inside_unit_ball(mode):
    x = sample_body("disk", 30, 2, seed=3, mode=mode)
    for p in x.points:
        assert sum(c * c for c in p) <= 1


def test_annulus_norm_window():
    x = sample_body("annulus", 30, 2, seed=3, mode=ScalarMode.EXACT)
    for p in x.points:
        nsq = sum(c * c for c in p)
        assert F(1, 4) <= nsq <= 1


def test_annulus_needs_d2():
    with pytest.raises(ValueError, match="annulus"):
        sample_body("annulus", 10, 3, seed=0)


def test_regular_simplex_d3_exact_vertices():
    x = sample_body("regular-simplex", 4, 3, seed=0, mode=ScalarMode.EXACT)
    assert x.points == TETRA.vertices


def test_regular_simplex_d1_exact():
    x = sample_body("regular-simplex", 5, 1, seed=1, mode=ScalarMode.EXACT)
    assert x.points[:2] == ((F(-1),), (F(1),))
    assert all(-1 < p[0] < 1 for p in x.points[2:])


def test_regular_simplex_exact_unavailable_elsewhere():
    with pytest.raises(ValueError, match="no exact rational realization"):
        sample_body("regular-simplex", 5, 2, seed=0, mode=ScalarMode.EXACT)


@pytest.mark.parametrize("d", [2, 4, 5])
def test_regular_simplex_float_is_regular(d):
    x = sample_body("regular-simplex", d + 1, d, seed=0)
    verts = x.points
    dists = [
        math.dist(verts[i], verts[j])
        for i in range(d + 1)
        for j in range(i + 1, d + 1)
    ]
    assert max(dists) - min(dists) < 1e-12
    # centered at the origin
    for k in range(d):
        assert abs(sum(v[k] for v in verts)) < 1e-12


def test_regular_simplex_interior_points_inside():
    x = sample_body("regular-simplex", 12, 3, seed=9, mode=ScalarMode.EXACT)
    t = make_simplex(x.points[:4])
    for p in x.points[4:]:
        assert point_in_simplex(t, p)


def test_input_validation():
    with pytest.raises(ValueError, match="unknown body"):
        sample_body("torus", 10, 2, seed=0)
    with pytest.raises(ValueError, match="at least d\\+1"):
        sample_body("square", 2, 2, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        sample_body("square", 5, 0, seed=0)


def test_rejection_miss_is_an_input_error(monkeypatch):
    # A 30-ball fills ~2e-14 of its cube, so a few draws never hit it.
    monkeypatch.setattr(sampling, "_MAX_REJECT", 20)
    with pytest.raises(InputFormatError, match="disk in dimension 30"):
        sample_body("disk", 40, 30, seed=0)


def test_bodies_tuple_is_the_public_contract():
    assert BODIES == ("square", "disk", "regular-simplex", "annulus")
