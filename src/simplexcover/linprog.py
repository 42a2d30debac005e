"""Certificate checks, and an exact reference solver, for inequality-form LPs.

    minimize    c . z
    subject to  G z <= h        (z free)

The runtime uses only ``check_certificate``: every dilation is a closed
form, re-checked by substitution against dual multipliers y >= 0 with
y.G = -c and y.h = -value.  ``solve_lp`` is the tests' reference solver.
Nothing at runtime calls it; it stays in the package because the
benchmark's span tracer looks it up by name (ROADMAP.md, item 2).

``solve_lp`` is a two-phase primal simplex on the standard-form tableau,
in Fractions only.  Free variables are split as z = u - w with u, w >= 0,
every row gets a slack, and rows with negative right-hand side get a
phase-1 artificial.  Bland's anti-cycling rule (smallest eligible column;
ratio ties broken by smallest basic column) makes termination
unconditional.  Every outcome carries a certificate, checked at tolerance
0: dual multipliers for OPTIMAL, a Farkas vector y >= 0 with y.G = 0 and
y.h < 0 for INFEASIBLE (``check_farkas``), a feasible point and a ray r
with G r <= 0 and c . r < 0 for UNBOUNDED.  A float coefficient is the
exact binary rational it denotes, so an LP with one is solved on its exact
twin and each scalar of the result is rounded once to float.
"""
from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import LPInternalError
from .scalars import Scalar, ScalarMode, infer_mode

_MAX_ITERS = 100_000
_ZERO, _ONE = Fraction(0), Fraction(1)


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """min objective . z  subject to  rows[k] . z <= rhs[k]."""

    num_vars: int
    objective: Tuple[Scalar, ...]
    rows: Tuple[Tuple[Scalar, ...], ...]
    rhs: Tuple[Scalar, ...]

    def __init__(self, num_vars, objective, rows, rhs):
        num_vars = int(num_vars)
        if num_vars < 1:
            raise ValueError("an LP needs at least one variable")
        objective = tuple(objective)
        rows = tuple(tuple(r) for r in rows)
        rhs = tuple(rhs)
        if len(objective) != num_vars:
            raise ValueError("objective length must equal num_vars")
        if not rows:
            raise ValueError("an LP needs at least one constraint")
        if len(rows) != len(rhs):
            raise ValueError("rows and rhs must have equal length")
        for k, r in enumerate(rows):
            if len(r) != num_vars:
                raise ValueError(f"constraint {k} has {len(r)} coefficients, expected {num_vars}")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


@dataclass
class LPSolution:
    status: LPStatus
    z: Optional[Tuple[Scalar, ...]] = None
    value: Optional[Scalar] = None
    dual: Optional[Tuple[Scalar, ...]] = None
    active: Optional[Tuple[int, ...]] = None
    farkas: Optional[Tuple[Scalar, ...]] = None
    ray: Optional[Tuple[Scalar, ...]] = None
    iterations: int = 0


class _Tableau:
    """Dense simplex tableau in Fractions.  Columns: u (m), w (m), one slack
    per row (K), then one artificial per row with negative right-hand side;
    the last entry of each row is its right-hand side."""

    def __init__(self, lp: LinearProgram):
        m = self.m = lp.num_vars
        self.n_real = 2 * m + len(lp.rows)
        self.ncols = self.n_real + sum(h < 0 for h in lp.rhs)
        self.artificials = range(self.n_real, self.ncols)
        self.rows: List[List[Fraction]] = []
        self.basis: List[int] = []
        arts = iter(self.artificials)
        for k, (g, h) in enumerate(zip(lp.rows, lp.rhs)):
            sigma = -1 if h < 0 else 1
            row = [sigma * v for v in g] + [-sigma * v for v in g]
            row += [_ZERO] * (self.ncols - 2 * m) + [sigma * h]
            row[2 * m + k] = Fraction(sigma)
            self.basis.append(2 * m + k if sigma == 1 else next(arts))
            row[self.basis[-1]] = _ONE
            self.rows.append(row)
        self.iterations = 0

    def _pivot(self, r: int, j: int, costrow: List[Fraction]) -> None:
        prow = self.rows[r]
        inv = _ONE / prow[j]
        prow[:] = [v * inv for v in prow]
        for row in self.rows + [costrow]:
            f = row[j]
            if row is not prow and f != 0:
                row[:] = [a - f * b for a, b in zip(row, prow)]
        self.basis[r] = j

    def _leaving(self, j: int) -> Optional[int]:
        """Bland ratio test; None means the column is unbounded."""
        best_r = None
        best_ratio = None
        for r, row in enumerate(self.rows):
            a = row[j]
            if a <= 0:
                continue
            ratio = row[-1] / a
            if best_ratio is None or ratio < best_ratio or (
                ratio == best_ratio and self.basis[r] < self.basis[best_r]
            ):
                best_r, best_ratio = r, ratio
        return best_r

    def run(self, cost: Sequence[Fraction]):
        """Iterate to optimality of ``cost`` (one entry per column); the
        artificials never (re-)enter.  Returns (reduced cost row, unbounded
        column or None)."""
        costrow = list(cost) + [_ZERO]
        for b, row in zip(self.basis, self.rows):
            if cost[b] != 0:
                costrow = [a - cost[b] * v for a, v in zip(costrow, row)]
        while True:
            j = next((j for j in range(self.n_real) if costrow[j] < 0), None)
            if j is None:
                return costrow, None
            r = self._leaving(j)
            if r is None:
                return costrow, j
            self.iterations += 1
            if self.iterations > _MAX_ITERS:
                raise LPInternalError("simplex iteration cap exceeded")
            self._pivot(r, j, costrow)

    def point(self) -> Tuple[Fraction, ...]:
        value = dict(zip(self.basis, (row[-1] for row in self.rows)))
        m = self.m
        return tuple(value.get(j, _ZERO) - value.get(m + j, _ZERO) for j in range(m))

    def dual_from(self, costrow: List[Fraction]) -> Tuple[Fraction, ...]:
        return tuple(costrow[2 * self.m:self.n_real])

    def ray(self, j: int) -> Tuple[Fraction, ...]:
        """Improving ray for entering column j (no blocking row)."""
        delta = dict(zip(self.basis, (-row[j] for row in self.rows)))
        delta[j] = _ONE
        m = self.m
        return tuple(delta.get(v, _ZERO) - delta.get(m + v, _ZERO) for v in range(m))


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve the inequality-form LP exactly.

    An LP with a float coefficient is solved on its exact twin, and each
    scalar of the result is rounded once to float.
    """
    sol = _solve_exact(LinearProgram(lp.num_vars, map(Fraction, lp.objective),
                                     (map(Fraction, r) for r in lp.rows), map(Fraction, lp.rhs)))
    if infer_mode(list(lp.objective) + [x for r in lp.rows for x in r] + list(lp.rhs)) \
            is ScalarMode.EXACT:
        return sol

    def rounded(v):
        return None if v is None else tuple(map(float, v))

    return dataclasses.replace(
        sol, z=rounded(sol.z), dual=rounded(sol.dual), farkas=rounded(sol.farkas),
        ray=rounded(sol.ray), value=None if sol.value is None else float(sol.value),
    )


def _solve_exact(lp: LinearProgram) -> LPSolution:
    tab = _Tableau(lp)
    m = lp.num_vars
    # Phase 1: drive artificials to zero when any row started infeasible.
    if tab.artificials:
        costrow, _ = tab.run([_ZERO] * tab.n_real + [_ONE] * len(tab.artificials))
        if -costrow[-1] > 0:  # the artificials' least sum
            farkas = tab.dual_from(costrow)
            if not check_farkas(lp, farkas):
                raise LPInternalError("Farkas vector failed its check")
            return LPSolution(LPStatus.INFEASIBLE, farkas=farkas, iterations=tab.iterations)
        # Pivot lingering artificials out of the basis; a row with no other
        # nonzero entry is a redundant constraint and goes.
        redundant = []
        for r in range(len(tab.rows)):
            if tab.basis[r] in tab.artificials:
                j = next((j for j in range(tab.n_real) if tab.rows[r][j] != 0), None)
                if j is None:
                    redundant.append(r)
                else:
                    tab._pivot(r, j, costrow)
        for r in reversed(redundant):
            del tab.rows[r], tab.basis[r]

    # Phase 2 on the real objective.
    c = list(lp.objective)
    costrow, unbounded = tab.run(c + [-v for v in c] + [_ZERO] * (tab.ncols - 2 * m))
    z = tab.point()
    if unbounded is not None:
        ray = tab.ray(unbounded)
        if max(sum(g * v for g, v in zip(row, ray)) for row in lp.rows) > 0 or sum(
                v * cv for v, cv in zip(ray, c)) >= 0:
            raise LPInternalError("unbounded ray fails G r <= 0, c . r < 0")
        return LPSolution(LPStatus.UNBOUNDED, z=z, ray=ray, iterations=tab.iterations)

    sol = LPSolution(
        LPStatus.OPTIMAL, z=z, value=sum(cv * v for cv, v in zip(c, z)),
        dual=tab.dual_from(costrow), iterations=tab.iterations,
        active=tuple(k for k, (g, h) in enumerate(zip(lp.rows, lp.rhs))
                     if sum(a * v for a, v in zip(g, z)) == h),
    )
    if not check_certificate(lp, sol, tol=0):
        raise LPInternalError("optimum failed its own certificate")
    return sol


def check_certificate(lp: LinearProgram, sol: LPSolution, tol: Scalar) -> bool:
    """Re-verify an OPTIMAL solution by substitution.

    Checks primal feasibility, objective consistency, dual nonnegativity,
    y . G = -c, and y . h = -value: exactly when tol is 0, otherwise to
    tol relative.
    """
    if sol.status is not LPStatus.OPTIMAL:
        raise ValueError(f"certificate check needs an optimal solution, got {sol.status}")
    if sol.z is None or sol.dual is None or sol.value is None:
        raise ValueError("solution is missing its point, value, or dual certificate")

    def close(a, b):
        d = a - b
        if d < 0:
            d = -d
        return d <= tol * max(1, abs(a), abs(b)) if tol != 0 else d == 0

    z, y = sol.z, sol.dual
    if len(y) != len(lp.rows) or len(z) != lp.num_vars:
        return False
    if any(v < -(tol if tol != 0 else 0) for v in y):
        return False
    for row, b in zip(lp.rows, lp.rhs):
        lhs = sum(g * zv for g, zv in zip(row, z))
        if lhs > b and not close(lhs, b):
            return False
    if not close(sum(c * zv for c, zv in zip(lp.objective, z)), sol.value):
        return False
    for j in range(lp.num_vars):
        col = sum(y[k] * lp.rows[k][j] for k in range(len(lp.rows)))
        if not close(col, -lp.objective[j]):
            return False
    if not close(sum(yk * hk for yk, hk in zip(y, lp.rhs)), -sol.value):
        return False
    return True


def check_farkas(lp: LinearProgram, farkas: Sequence[Scalar]) -> bool:
    """y >= 0, y . G = 0, y . h < 0 certifies that no z satisfies G z <= h."""
    if farkas is None or len(farkas) != len(lp.rows):
        return False
    if any(v < 0 for v in farkas):
        return False
    for j in range(lp.num_vars):
        if sum(farkas[k] * lp.rows[k][j] for k in range(len(lp.rows))) != 0:
            return False
    return sum(y * h for y, h in zip(farkas, lp.rhs)) < 0
