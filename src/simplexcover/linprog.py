"""Certificate checks, and a dense reference solver, for inequality-form LPs.

    minimize    c . z
    subject to  G z <= h        (z free)

The runtime uses only ``check_certificate``: every dilation is a closed
form, re-checked by substitution against dual multipliers y >= 0 with
y.G = -c and y.h = -value.  ``solve_lp`` is the tests' reference solver.
Nothing at runtime calls it; it stays in the package because the
benchmark's span tracer looks it up by name (ROADMAP.md, item 2).

``solve_lp`` is a two-phase primal simplex on the standard-form tableau.
Free variables are split as z = u - w with u, w >= 0, every row gets a
slack, and rows with negative right-hand side get a phase-1 artificial.
Bland's anti-cycling rule (smallest eligible column; ratio ties broken by
smallest basic column) makes termination unconditional in exact
arithmetic.  Exact mode runs in Fractions, and every outcome carries a
certificate: dual multipliers for OPTIMAL, a Farkas vector y >= 0 with
y.G = 0 and y.h < 0 for INFEASIBLE (``check_farkas``), a feasible point
and a ray r with G r <= 0 and c . r < 0 for UNBOUNDED.  Float mode pivots
with magnitude guards, and a float status that fails its own certificate
at ``scalars.FLOAT_CERTIFICATE_TOL``, the tolerance every float dilation
certificate is checked at too, becomes NUMERICAL_BREAKDOWN.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import LPInternalError
from .scalars import FLOAT_CERTIFICATE_TOL, Scalar, ScalarMode, infer_mode

# Float-mode guards.  Exact mode compares against literal zero.
_FLOAT_COST_TOL = 1e-12
_FLOAT_PIVOT_TOL = 1e-11
_FLOAT_FEAS_TOL = 1e-9
_MAX_ITERS = 100_000


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_BREAKDOWN = "numerical-breakdown"


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
    """Dense simplex tableau over one scalar family."""

    def __init__(self, lp: LinearProgram, mode: ScalarMode):
        self.mode = mode
        conv = (lambda x: Fraction(x)) if mode is ScalarMode.EXACT else float
        self.zero: Scalar = conv(0)
        self.one: Scalar = conv(1)
        self.m = lp.num_vars
        self.K = len(lp.rows)
        self.G = [[conv(x) for x in row] for row in lp.rows]
        self.h = [conv(x) for x in lp.rhs]
        self.c = [conv(x) for x in lp.objective]

        m, K = self.m, self.K
        self.col_u = list(range(0, m))
        self.col_w = list(range(m, 2 * m))
        self.col_s = list(range(2 * m, 2 * m + K))
        art_rows = [k for k in range(K) if self.h[k] < 0]
        self.col_a = {k: 2 * m + K + i for i, k in enumerate(art_rows)}
        self.ncols = 2 * m + K + len(art_rows)
        self.n_real = 2 * m + K

        self.rows: List[List[Scalar]] = []
        self.basis: List[int] = []
        self.row_origin: List[int] = []
        for k in range(K):
            sigma = -1 if self.h[k] < 0 else 1
            row = [self.zero] * (self.ncols + 1)
            for j in range(m):
                g = self.G[k][j]
                row[self.col_u[j]] = sigma * g
                row[self.col_w[j]] = -sigma * g
            row[self.col_s[k]] = self.one if sigma == 1 else -self.one
            if sigma == -1:
                row[self.col_a[k]] = self.one
            row[self.ncols] = sigma * self.h[k]
            self.rows.append(row)
            self.basis.append(self.col_s[k] if sigma == 1 else self.col_a[k])
            self.row_origin.append(k)
        self.iterations = 0

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, j: int, costrow: List[Scalar]) -> bool:
        """Pivot on (r, j).  Returns False on float breakdown."""
        piv = self.rows[r][j]
        if self.mode is ScalarMode.FLOAT and abs(piv) < _FLOAT_PIVOT_TOL:
            return False
        prow = self.rows[r]
        inv = self.one / piv
        for col in range(self.ncols + 1):
            prow[col] = prow[col] * inv
        prow[j] = self.one
        for rr, row in enumerate(self.rows):
            if rr == r:
                continue
            f = row[j]
            if f == 0:
                continue
            for col in range(self.ncols + 1):
                row[col] = row[col] - f * prow[col]
            row[j] = self.zero
        f = costrow[j]
        if f != 0:
            for col in range(self.ncols + 1):
                costrow[col] = costrow[col] - f * prow[col]
            costrow[j] = self.zero
        self.basis[r] = j
        if self.mode is ScalarMode.FLOAT:
            if not all(_finite(v) for v in prow) or not _finite(costrow[self.ncols]):
                return False
        return True

    def _cost_row(self, cost: Sequence[Scalar]) -> List[Scalar]:
        """Reduced costs for ``cost`` relative to the current basis."""
        row = list(cost) + [self.zero] * (self.ncols + 1 - len(cost))
        for r, b in enumerate(self.basis):
            cb = cost[b] if b < len(cost) else self.zero
            if cb != 0:
                trow = self.rows[r]
                for col in range(self.ncols + 1):
                    row[col] = row[col] - cb * trow[col]
        return row

    def _entering(self, costrow: List[Scalar], allowed: Sequence[int]) -> Optional[int]:
        tol = self.zero if self.mode is ScalarMode.EXACT else _FLOAT_COST_TOL
        for j in allowed:
            if costrow[j] < -tol:
                return j
        return None

    def _leaving(self, j: int) -> Optional[int]:
        """Bland ratio test; None means the column is unbounded."""
        tol = self.zero if self.mode is ScalarMode.EXACT else _FLOAT_PIVOT_TOL
        best_r = None
        best_ratio = None
        for r, row in enumerate(self.rows):
            a = row[j]
            if a <= tol:
                continue
            ratio = row[self.ncols] / a
            if best_ratio is None or ratio < best_ratio or (
                ratio == best_ratio and self.basis[r] < self.basis[best_r]
            ):
                best_r, best_ratio = r, ratio
        return best_r

    def run(self, cost: Sequence[Scalar], allowed: Sequence[int]):
        """Iterate to optimality of ``cost``.  Returns (costrow, status_str)."""
        costrow = self._cost_row(cost)
        while True:
            j = self._entering(costrow, allowed)
            if j is None:
                return costrow, "optimal"
            r = self._leaving(j)
            if r is None:
                # Entries in (0, pivot tol] are unusable but rule out a true
                # ray; calling that unbounded would be a silent wrong answer.
                if self.mode is ScalarMode.FLOAT and any(
                    row[j] > 0 for row in self.rows
                ):
                    return costrow, "breakdown"
                return costrow, ("unbounded", j)
            self.iterations += 1
            if self.iterations > _MAX_ITERS:
                if self.mode is ScalarMode.FLOAT:
                    return costrow, "breakdown"
                raise LPInternalError("simplex iteration cap exceeded in exact mode")
            if not self._pivot(r, j, costrow):
                return costrow, "breakdown"

    # -- extraction -------------------------------------------------------

    def column_value(self, col: int) -> Scalar:
        for r, b in enumerate(self.basis):
            if b == col:
                return self.rows[r][self.ncols]
        return self.zero

    def point(self) -> Tuple[Scalar, ...]:
        return tuple(
            self.column_value(self.col_u[j]) - self.column_value(self.col_w[j])
            for j in range(self.m)
        )

    def dual_from(self, costrow: List[Scalar]) -> Tuple[Scalar, ...]:
        return tuple(costrow[self.col_s[k]] for k in range(self.K))

    def ray(self, j: int) -> Tuple[Scalar, ...]:
        """Improving ray for entering column j (no blocking row)."""
        delta = [self.zero] * self.ncols
        delta[j] = self.one
        for r, b in enumerate(self.basis):
            delta[b] = -self.rows[r][j]
        return tuple(
            delta[self.col_u[v]] - delta[self.col_w[v]] for v in range(self.m)
        )


def _finite(x: Scalar) -> bool:
    return not isinstance(x, float) or (x == x and abs(x) != float("inf"))


def solve_lp(lp: LinearProgram, mode: Optional[ScalarMode] = None) -> LPSolution:
    """Solve the inequality-form LP in the requested scalar mode.

    mode=None infers EXACT when every coefficient is rational, FLOAT otherwise.
    """
    if mode is None:
        mode = infer_mode(
            list(lp.objective) + [x for r in lp.rows for x in r] + list(lp.rhs)
        )
    tab = _Tableau(lp, mode)
    allowed = list(range(tab.n_real))  # artificials never (re-)enter

    # Phase 1: drive artificials to zero when any row started infeasible.
    if tab.col_a:
        cost1 = [tab.zero] * tab.ncols
        for col in tab.col_a.values():
            cost1[col] = tab.one
        costrow, outcome = tab.run(cost1, allowed)
        if outcome == "breakdown":
            return LPSolution(status=LPStatus.NUMERICAL_BREAKDOWN, iterations=tab.iterations)
        if isinstance(outcome, tuple):
            raise LPInternalError("phase-1 objective is bounded below by zero")
        phase1 = -costrow[tab.ncols]
        feas_tol = tab.zero if mode is ScalarMode.EXACT else _FLOAT_FEAS_TOL * (
            1.0 + max(abs(v) for v in tab.h)
        )
        if phase1 > feas_tol:
            farkas = tab.dual_from(costrow)
            if mode is ScalarMode.EXACT:
                if not check_farkas(lp, farkas):
                    raise LPInternalError("exact-mode Farkas vector failed its check")
            elif not check_farkas(lp, farkas, tol=FLOAT_CERTIFICATE_TOL):
                return LPSolution(
                    status=LPStatus.NUMERICAL_BREAKDOWN, iterations=tab.iterations
                )
            return LPSolution(
                status=LPStatus.INFEASIBLE, farkas=farkas, iterations=tab.iterations
            )
        # Remove lingering artificials from the basis (degenerate rows).
        drop: List[int] = []
        for r in range(len(tab.rows)):
            if tab.basis[r] in tab.col_a.values():
                pivot_col = None
                for j in range(tab.n_real):
                    a = tab.rows[r][j]
                    big = a != 0 if mode is ScalarMode.EXACT else abs(a) > _FLOAT_PIVOT_TOL
                    if big:
                        pivot_col = j
                        break
                if pivot_col is None:
                    drop.append(r)  # redundant constraint
                else:
                    if not tab._pivot(r, pivot_col, costrow):
                        return LPSolution(
                            status=LPStatus.NUMERICAL_BREAKDOWN, iterations=tab.iterations
                        )
        for r in sorted(drop, reverse=True):
            del tab.rows[r]
            del tab.basis[r]
            del tab.row_origin[r]

    # Phase 2 on the real objective.
    cost2 = [tab.zero] * tab.ncols
    for j in range(tab.m):
        cost2[tab.col_u[j]] = tab.c[j]
        cost2[tab.col_w[j]] = -tab.c[j]
    costrow, outcome = tab.run(cost2, allowed)
    if outcome == "breakdown":
        return LPSolution(status=LPStatus.NUMERICAL_BREAKDOWN, iterations=tab.iterations)
    if isinstance(outcome, tuple):
        _, j = outcome
        point = tab.point()
        ray = tab.ray(j)
        recede = max(sum(g * rv for g, rv in zip(row, ray)) for row in tab.G)
        improve = sum(cv * rv for cv, rv in zip(tab.c, ray))
        if mode is ScalarMode.EXACT:
            if recede > 0 or improve >= 0:
                raise LPInternalError("unbounded ray fails G r <= 0, c . r < 0")
        else:
            scale = max(1.0, max(abs(v) for v in ray))
            if recede > FLOAT_CERTIFICATE_TOL * scale or improve >= 0:
                return LPSolution(
                    status=LPStatus.NUMERICAL_BREAKDOWN, iterations=tab.iterations
                )
        return LPSolution(
            status=LPStatus.UNBOUNDED, z=point, ray=ray, iterations=tab.iterations
        )

    z = tab.point()
    value = sum(cv * zv for cv, zv in zip(tab.c, z))
    y = list(tab.dual_from(costrow))
    tol = tab.zero if mode is ScalarMode.EXACT else _FLOAT_FEAS_TOL
    active = tuple(
        k
        for k in range(tab.K)
        if abs(tab.h[k] - sum(g * zv for g, zv in zip(tab.G[k], z))) <= tol * _scale(tab.h[k])
    )
    sol = LPSolution(
        status=LPStatus.OPTIMAL,
        z=z,
        value=value,
        dual=tuple(y),
        active=active,
        iterations=tab.iterations,
    )
    if mode is ScalarMode.EXACT:
        if not check_certificate(lp, sol, tol=0):
            raise LPInternalError("exact-mode optimum failed its own certificate")
    elif not check_certificate(lp, sol, tol=FLOAT_CERTIFICATE_TOL):
        return LPSolution(status=LPStatus.NUMERICAL_BREAKDOWN, iterations=tab.iterations)
    return sol


def _scale(x: Scalar) -> Scalar:
    return max(1, abs(x)) if isinstance(x, float) else 1


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


def check_farkas(lp: LinearProgram, farkas: Sequence[Scalar], tol: Scalar = 0) -> bool:
    """y >= 0, y . G = 0, y . h < 0 certifies that no z satisfies G z <= h.

    tol > 0 relaxes the sign and combination tests for float certificates.
    """
    if farkas is None or len(farkas) != len(lp.rows):
        return False
    scale = max([1] + [abs(v) for v in farkas])
    if any(v < -tol * scale for v in farkas):
        return False
    for j in range(lp.num_vars):
        if abs(sum(farkas[k] * lp.rows[k][j] for k in range(len(lp.rows)))) > tol * scale:
            return False
    return sum(y * h for y, h in zip(farkas, lp.rhs)) < -tol * scale
