import random
from fractions import Fraction

import pytest

from helpers import det
from simplexcover.errors import SingularMatrixError
from simplexcover.linalg import int_det_bareiss, solve


def test_det_known_values():
    assert det([[Fraction(2)]]) == 2
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det([[1, 2], [2, 4]]) == 0


def test_det_row_swap_changes_sign():
    m = [[Fraction(1), Fraction(5)], [Fraction(2), Fraction(3)]]
    assert det(m) == -det([m[1], m[0]])


def test_det_float_path():
    assert det([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0)


def test_solve_exact():
    # x + y = 3, x - y = 1
    sol = solve([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]],
                [Fraction(3), Fraction(1)])
    assert sol == [Fraction(2), Fraction(1)]


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
              [Fraction(1), Fraction(1)])


def test_solve_random_exact_systems():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        if det([row[:] for row in a]) == 0:
            continue
        assert solve(a, b) == x


def test_bareiss_matches_det():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expect = det([[Fraction(v) for v in row] for row in m])
        got = int_det_bareiss(m)
        assert got == expect
        assert isinstance(got, int)


def test_bareiss_big_integers_stay_exact():
    # entries far beyond int64: the fraction-free recurrence must not overflow
    big = 10**12
    m = [[big, 1, 0], [0, big, 1], [1, 0, big]]
    assert int_det_bareiss(m) == big**3 + 1

