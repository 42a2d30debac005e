import random
from fractions import Fraction

import pytest

from helpers import lp_vertex_minimum, random_boxed_lp
from simplexcover.linprog import (
    LinearProgram,
    LPStatus,
    check_certificate,
    check_farkas,
    solve_lp,
)

F = Fraction


def test_lp_validation():
    with pytest.raises(ValueError):
        LinearProgram(0, (), ((F(1),),), (F(1),))
    with pytest.raises(ValueError):
        LinearProgram(2, (F(1),), ((F(1), F(1)),), (F(1),))
    with pytest.raises(ValueError):
        LinearProgram(1, (F(1),), (), ())
    with pytest.raises(ValueError):
        LinearProgram(1, (F(1),), ((F(1), F(2)),), (F(1),))


def test_simple_maximization():
    # min -z subject to z <= 3, -z <= 0
    lp = LinearProgram(1, (F(-1),), ((F(1),), (F(-1),)), (F(3), F(0)))
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.z == (F(3),)
    assert sol.value == F(-3)
    assert sol.dual == (F(1), F(0))
    assert check_certificate(lp, sol, tol=0)


def test_phase1_negative_rhs():
    # min z1 + z2 subject to z1 >= 1, z2 >= 2 exercises artificials
    lp = LinearProgram(
        2,
        (F(1), F(1)),
        ((F(-1), F(0)), (F(0), F(-1))),
        (F(-1), F(-2)),
    )
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.z == (F(1), F(2))
    assert sol.value == F(3)
    assert check_certificate(lp, sol, tol=0)


def test_infeasible_with_farkas():
    # z <= 0 and z >= 1 cannot both hold; y = (1, 1) proves it
    lp = LinearProgram(1, (F(1),), ((F(1),), (F(-1),)), (F(0), F(-1)))
    sol = solve_lp(lp)
    assert sol.status is LPStatus.INFEASIBLE
    assert check_farkas(lp, sol.farkas)
    assert sum(y * h for y, h in zip(sol.farkas, lp.rhs)) < 0


def test_unbounded_with_ray():
    lp = LinearProgram(1, (F(-1),), ((F(-1),),), (F(0),))
    sol = solve_lp(lp)
    assert sol.status is LPStatus.UNBOUNDED
    r = sol.ray
    assert sum(c * v for c, v in zip(lp.objective, r)) < 0
    assert all(sum(g * v for g, v in zip(row, r)) <= 0 for row in lp.rows)


def test_degenerate_duplicated_rows_terminate():
    rows = ((F(1),),) * 4 + ((F(-1),),)
    lp = LinearProgram(1, (F(-1),), rows, (F(1),) * 4 + (F(0),))
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == F(-1)


def test_redundant_equality_rows():
    # x + y = 2 written as a pair of inequalities, plus a box
    lp = LinearProgram(
        2,
        (F(1), F(0)),
        (
            (F(1), F(1)),
            (F(-1), F(-1)),
            (F(1), F(0)),
            (F(-1), F(0)),
            (F(0), F(1)),
            (F(0), F(-1)),
        ),
        (F(2), F(-2), F(1), F(0), F(2), F(0)),
    )
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.value == F(0)
    assert sol.z[0] + sol.z[1] == 2
    assert check_certificate(lp, sol, tol=0)


def test_active_set_reported():
    lp = LinearProgram(1, (F(-1),), ((F(1),), (F(-1),)), (F(3), F(0)))
    sol = solve_lp(lp)
    assert sol.active == (0,)


def test_exact_oracle_equivalence():
    """Vertex enumeration agrees with the tableau on random boxed LPs."""
    rng = random.Random(2024)
    optimal = infeasible = 0
    for _ in range(120):
        lp = random_boxed_lp(rng, exact=True)
        sol = solve_lp(lp)
        brute = lp_vertex_minimum(lp)
        if brute is None:
            infeasible += 1
            assert sol.status is LPStatus.INFEASIBLE
            assert check_farkas(lp, sol.farkas)
        else:
            optimal += 1
            assert sol.status is LPStatus.OPTIMAL
            assert sol.value == brute
            assert check_certificate(lp, sol, tol=0)
    # the generator must exercise both outcomes
    assert optimal > 20 and infeasible > 5


def test_float_matches_exact():
    rng = random.Random(77)
    for _ in range(80):
        lp_exact = random_boxed_lp(rng, exact=True)
        lp_float = LinearProgram(
            lp_exact.num_vars,
            tuple(float(c) for c in lp_exact.objective),
            tuple(tuple(float(g) for g in r) for r in lp_exact.rows),
            tuple(float(h) for h in lp_exact.rhs),
        )
        se = solve_lp(lp_exact)
        sf = solve_lp(lp_float)
        assert sf.status is se.status
        if se.status is LPStatus.OPTIMAL:
            assert sf.value == float(se.value)


def test_mode_inference():
    lp = LinearProgram(1, (F(1),), ((F(1),), (F(-1),)), (F(1), F(1)))
    assert isinstance(solve_lp(lp).value, Fraction)
    lp_f = LinearProgram(1, (1.0,), ((1.0,), (-1.0,)), (1.0, 1.0))
    assert isinstance(solve_lp(lp_f).value, float)


def test_float_lp_is_solved_on_its_exact_twin():
    # A pivot of 1e-13 next to one of 1.0: the optimum is exactly
    # 1 / Fraction(1e-13), the binary rational 1e-13 denotes, rounded once.
    lp = LinearProgram(1, (-1.0,), ((1e-13,), (1.0,)), (1.0, 1e15))
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.z == (float(1 / Fraction(1e-13)),)


def _rounded(v):
    return None if v is None else tuple(map(float, v))


def test_float_optimal_is_certificate_gated():
    """Each float LP's result is its exact twin's result, rounded once."""
    rng = random.Random(5)
    for _ in range(40):
        lp = random_boxed_lp(rng, exact=False)
        twin = LinearProgram(
            lp.num_vars,
            map(Fraction, lp.objective),
            (map(Fraction, r) for r in lp.rows),
            map(Fraction, lp.rhs),
        )
        sol, exact = solve_lp(lp), solve_lp(twin)
        assert sol.status is exact.status and sol.active == exact.active
        assert sol.value == (None if exact.value is None else float(exact.value))
        for field in ("z", "dual", "farkas", "ray"):
            assert getattr(sol, field) == _rounded(getattr(exact, field)), field
        if exact.status is LPStatus.OPTIMAL:
            assert check_certificate(twin, exact, tol=0)
        elif exact.status is LPStatus.INFEASIBLE:
            assert check_farkas(twin, exact.farkas)


def test_check_certificate_rejects_tampering():
    lp = LinearProgram(1, (F(-1),), ((F(1),), (F(-1),)), (F(3), F(0)))
    sol = solve_lp(lp)
    bad = type(sol)(
        status=sol.status, z=sol.z, value=sol.value - 1, dual=sol.dual
    )
    assert not check_certificate(lp, bad, tol=0)
    bad2 = type(sol)(
        status=sol.status, z=(F(4),), value=sol.value, dual=sol.dual
    )
    assert not check_certificate(lp, bad2, tol=0)
    assert not check_farkas(lp, (F(1), F(0)))
