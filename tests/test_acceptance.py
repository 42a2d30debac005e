"""Acceptance gate: one test per numbered guarantee, run with pytest -v.

Criteria 1-3 share one exact suite of 400 random rational instances
(100 per dimension 2..5, 20 points each).  Everything exact-mode here is
compared with zero tolerance; the two float criteria state their own.
"""
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np
import pytest

from helpers import (
    brute_mvs,
    contains,
    dense_dual,
    float_points,
    halfspace_dilation_lp,
    lp_vertex_minimum,
    random_boxed_lp,
    rational_points,
)
from simplexcover import (
    CounterexampleConfig,
    DilationSign,
    PointSet,
    Simplex,
    build_points,
    dilate_about_center,
    enumerate_triangles,
    min_dilation,
    mvs_exact,
    verify_counterexample,
    verify_local_maximality,
)
from simplexcover.counterexample import analytic_case_bounds, case6_geometry
from simplexcover.geometry import halfspace_form
from simplexcover.linprog import LinearProgram, LPSolution, LPStatus, check_certificate, solve_lp

F = Fraction

DIMS = (2, 3, 4, 5)
PER_DIM = 100
N_POINTS = 20


@dataclass
class Instance:
    d: int
    neg_lam: Fraction
    pos_lam: Fraction
    slab: List[Tuple[Fraction, Fraction]]
    centered_ok: bool  # X inside dilate_about_center(T, d+2), zero tolerance


@pytest.fixture(scope="module")
def suite() -> List[Instance]:
    out = []
    for d in DIMS:
        for i in range(PER_DIM):
            x = rational_points(N_POINTS, d, seed=d * 1000 + i)
            t = mvs_exact(x).simplex
            neg = min_dilation(t, x, DilationSign.NEGATIVE)
            pos = min_dilation(t, x, DilationSign.POSITIVE)
            slab = verify_local_maximality(t, x, tol=0).slab
            shell = halfspace_form(dilate_about_center(t, d + 2))
            centered_ok = all(contains(shell, p, tol=0) for p in x.points)
            out.append(Instance(d, neg.lam, pos.lam, slab, centered_ok))
    return out


def test_criterion_1_negative_dilation_within_d(suite):
    assert len(suite) == len(DIMS) * PER_DIM
    assert all(inst.neg_lam <= inst.d for inst in suite)


def test_criterion_2_positive_cover_within_d_plus_2(suite):
    assert all(inst.centered_ok for inst in suite)
    assert all(inst.pos_lam <= inst.d + 2 for inst in suite)


def test_criterion_3_slab_bounds_exact(suite):
    for inst in suite:
        for lo, hi in inst.slab:
            assert -inst.d <= lo and hi <= inst.d + 2


def test_criterion_4_counterexample_grid_exceeds_two():
    grid = [F(1, 20), F(1, 10), F(3, 20), F(1, 5)]
    configs = list(itertools.product(grid, grid)) + [(F(1, 3), F(1, 4))]
    for eps, dlt in configs:
        cfg = CounterexampleConfig(eps, dlt)
        rep = verify_counterexample(cfg)
        assert rep.feasible == (eps + dlt < F(1, 2))
        if rep.feasible:
            assert rep.min_lambda > 2
            assert all(tri.lambda_star > 2 for tri in rep.triangles)
        # Each binding dual, expanded over all 5 points, certifies the full
        # LP, built independently from the halfspace form.
        x = build_points(cfg)
        for tri, t in zip(rep.triangles, enumerate_triangles(x)):
            res = tri.dilation
            sol = LPSolution(
                LPStatus.OPTIMAL, z=res.lp_translate + (res.lam,), value=res.lam,
                dual=dense_dual(res, len(x)),
            )
            lp = halfspace_dilation_lp(t, x, DilationSign.POSITIVE)
            assert check_certificate(lp, sol, tol=0)


def test_criterion_5_case6_closed_forms():
    grid = [F(1, 20), F(1, 10), F(3, 20), F(1, 5)]
    for eps, dlt in itertools.product(grid, grid):
        e, s = eps, eps + dlt
        g = case6_geometry(CounterexampleConfig(eps, dlt))
        b = analytic_case_bounds(CounterexampleConfig(eps, dlt))
        # the two construction lines meet exactly at the stated height
        assert g.intersection_y == -2 / ((2 - e) / s + (1 - e)) == b.case6_y
        independent = 2 - s * (1 + 2 * e - e * e) / ((1 - e) * (2 - e))
        assert g.intercept_at_y == independent == b.case6_intercept
    at_fifth = case6_geometry(CounterexampleConfig(F(1, 5), F(1, 5)))
    assert at_fifth.intercept_at_y == F(73, 45)
    assert at_fifth.intercept_at_y < 2


def test_criterion_6_lp_solver_matches_vertex_enumeration():
    rng = random.Random(12345)
    optimal = infeasible = 0
    for _ in range(200):
        lp = random_boxed_lp(rng, exact=True)
        oracle = lp_vertex_minimum(lp)
        sol = solve_lp(lp)
        if oracle is None:
            infeasible += 1
            assert sol.status is LPStatus.INFEASIBLE
        else:
            optimal += 1
            assert sol.status is LPStatus.OPTIMAL
            assert sol.value == oracle
        twin = LinearProgram(
            lp.num_vars,
            tuple(float(c) for c in lp.objective),
            tuple(tuple(float(g) for g in r) for r in lp.rows),
            tuple(float(h) for h in lp.rhs),
        )
        fsol = solve_lp(twin)
        if oracle is None:
            assert fsol.status is LPStatus.INFEASIBLE
        else:
            assert fsol.status is LPStatus.OPTIMAL
            assert fsol.value == float(oracle)
    # the generator must exercise both outcomes for this to mean anything
    assert optimal >= 20 and infeasible >= 5


def test_criterion_7_mvs_matches_subset_enumeration():
    rng = random.Random(777)
    for k in range(50):
        d = 2 + k % 2
        n = rng.randint(d + 2, 12)
        x = rational_points(n, d, seed=9000 + k)
        res = mvs_exact(x)
        vol, idx = brute_mvs(x)
        assert res.volume == vol
        assert res.simplex.vertex_indices == idx


def grid_min_dilation(body: Simplex, x: PointSet) -> float:
    """Coarse-to-fine search over translates of the objective
    lambda(z) = max_i (max_j a_i.(x_j - c) - a_i.z)."""
    h = halfspace_form(body)
    A = np.array([[float(v) for v in a] for a in h.normals])
    c = np.array([float(v) for v in h.center])
    P = np.array([[float(v) for v in p] for p in x.points])
    M = (A @ (P - c).T).max(axis=1)
    center = np.zeros(2)
    radius = 2.0 * (float(np.abs(P).max()) + 1.0)
    best = float("inf")
    for _ in range(40):
        gx = np.linspace(center[0] - radius, center[0] + radius, 15)
        gy = np.linspace(center[1] - radius, center[1] + radius, 15)
        X, Y = np.meshgrid(gx, gy)
        Z = np.stack([X.ravel(), Y.ravel()], axis=1)
        lam = (M[None, :] - Z @ A.T).max(axis=1)
        k = int(lam.argmin())
        best = min(best, float(lam[k]))
        center = Z[k]
        radius *= 0.45
    return best


def test_criterion_8_dilation_matches_grid_search():
    for k in range(20):
        x = float_points(8, 2, seed=500 + k)
        t = mvs_exact(x).simplex
        sign = DilationSign.POSITIVE if k % 2 == 0 else DilationSign.NEGATIVE
        res = min_dilation(t, x, sign)
        body = t if sign is DilationSign.POSITIVE else dilate_about_center(t, -1)
        assert abs(res.lam - grid_min_dilation(body, x)) <= 1e-6
