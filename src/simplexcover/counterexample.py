"""Exact verification of a planar five-point family that defeats factor-2 covers.

The family, parameterized by rationals epsilon, delta in (0, 1):

    A = (-1, 0)                B = (1, 0)
    C = (-epsilon - delta, 1)  D = (epsilon + delta, 1)
    E = (0, epsilon - 1)

Whenever epsilon + delta < 1/2 ("feasible" configurations), no triangle on
three of the five points admits a translate whose 2-dilation covers all
five: the minimal covering dilation lambda* exceeds 2 for every one of the
ten triangles.  Everything in this module runs in exact rational
arithmetic; ``min_dilations`` builds the ten slab kernels as one batch and,
with no LP, checks each closed-form lambda* once on its kernel's integers
against its dual certificate, whose rows are the containment test.

The ten triangles fall into six classes under the mirror symmetry
x -> -x (which swaps A with B and C with D).  For each class an analytic
intercept bound backs the certified lambda*; the library treats lambda*
as the authority and checks that every analytic bound that certifies
impossibility is confirmed by the lambda* values.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .covering import DilationResult, DilationSign, min_dilations
from .errors import DegenerateSimplexError, InputFormatError
from .geometry import PointSet, Simplex

RationalLike = Union[int, str, Fraction]

POINT_LABELS = "ABCDE"

# The ten triangles with their symmetry class, in canonical order: grouped
# by class, mirror partner second.
_TRIANGLES: Tuple[Tuple[str, int], ...] = (
    ("CDE", 1), ("ABE", 2), ("ACD", 3), ("BCD", 3), ("ABC", 4),
    ("ABD", 4), ("ACE", 5), ("BDE", 5), ("ADE", 6), ("BCE", 6),
)
TRIANGLE_LABELS: Tuple[str, ...] = tuple(label for label, _ in _TRIANGLES)
CASE_OF_LABEL: Dict[str, int] = dict(_TRIANGLES)
_VERTEX_INDICES = tuple(tuple(map(POINT_LABELS.index, lb)) for lb in TRIANGLE_LABELS)

_MIRROR_CHAR = {"A": "B", "B": "A", "C": "D", "D": "C", "E": "E"}


def mirror_label(label: str) -> str:
    return "".join(sorted(_MIRROR_CHAR[ch] for ch in label))


def _as_fraction(v: RationalLike, name: str) -> Fraction:
    if isinstance(v, float):
        raise TypeError(f"{name} must be an exact rational, not a float")
    return Fraction(v)


@dataclass(frozen=True)
class CounterexampleConfig:
    epsilon: Fraction
    delta: Fraction

    def __init__(self, epsilon: RationalLike, delta: RationalLike):
        eps = _as_fraction(epsilon, "epsilon")
        dlt = _as_fraction(delta, "delta")
        if not (0 < eps < 1) or not (0 < dlt < 1):
            raise InputFormatError("epsilon and delta must lie strictly between 0 and 1")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", dlt)

    @property
    def feasible(self) -> bool:
        """True when epsilon + delta < 1/2, the regime the guarantee covers."""
        return self.epsilon + self.delta < Fraction(1, 2)


def build_points(cfg: CounterexampleConfig) -> PointSet:
    e, s = cfg.epsilon, cfg.epsilon + cfg.delta
    return PointSet(2, (
        (Fraction(-1), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (-s, Fraction(1)),
        (s, Fraction(1)),
        (Fraction(0), e - 1),
    ))


def enumerate_triangles(x: PointSet) -> List[Simplex]:
    """The ten triangles on the five points, in canonical label order.

    A degenerate triple is reported by label rather than dropped.
    """
    if len(x) != 5 or x.dim != 2:
        raise ValueError("expected the five-point planar family")
    p = x.array.tolist()  # the points times x.scale
    out = []
    for label, idx in zip(TRIANGLE_LABELS, _VERTEX_INDICES):
        (ax, ay), (bx, by), (cx, cy) = (p[i] for i in idx)
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):  # zero cross product
            raise DegenerateSimplexError(f"triangle {label} is degenerate")
        out.append(Simplex(2, tuple(x.points[i] for i in idx), idx))
    return out


@dataclass
class TriangleCaseReport:
    label: str
    vertex_indices: Tuple[int, ...]
    lambda_star: Fraction
    exceeds_two: bool
    matched_case: int
    dilation: DilationResult


def min_dilation_all(
    cfg: CounterexampleConfig,
) -> Tuple[List[TriangleCaseReport], Fraction]:
    """Exact minimal positive dilation of every triangle against all 5 points.

    One ``min_dilations`` call builds the ten slab kernels as one batch,
    checks each lambda* once and raises ``LPInternalError`` when its
    certificate fails.
    """
    x = build_points(cfg)
    triangles = enumerate_triangles(x)
    results = min_dilations(x, triangles, DilationSign.POSITIVE)
    reports = [
        TriangleCaseReport(
            label=label, vertex_indices=tri.vertex_indices, lambda_star=res.lam,
            exceeds_two=res.lam > 2, matched_case=case, dilation=res,
        )
        for (label, case), tri, res in zip(_TRIANGLES, triangles, results)
    ]
    return reports, min(r.lambda_star for r in reports)


@dataclass(frozen=True)
class Line:
    """y = slope * x + intercept."""

    slope: Fraction
    intercept: Fraction

    def y_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


def intersect(l1: Line, l2: Line) -> Tuple[Fraction, Fraction]:
    if l1.slope == l2.slope:
        raise ValueError("parallel lines do not intersect")
    x = (l2.intercept - l1.intercept) / (l1.slope - l2.slope)
    return x, l1.y_at(x)


@dataclass
class CaseBounds:
    """Analytic intercept quantities for the six symmetry classes.

    Each bound is the longest chord the named class can offer at dilation
    factor 2, to be compared against the length that class would have to
    cover; ``case6_y`` is the critical height used by the sixth class.
    """

    case1_intercept: Fraction
    case2_intercept: Fraction
    case4_intercept: Fraction
    case5_intercept: Fraction
    case6_y: Fraction
    case6_intercept: Fraction
    feasible: bool


def analytic_case_bounds(cfg: CounterexampleConfig) -> CaseBounds:
    e = cfg.epsilon
    s = cfg.epsilon + cfg.delta
    q = 2 - e
    r = 1 - e
    return CaseBounds(
        case1_intercept=4 * s,
        case2_intercept=2 - 2 * e,
        case4_intercept=2 * e,
        case5_intercept=2 - 2 * s * r / q,
        case6_y=Fraction(-2) / (q / s + r),
        case6_intercept=2 - s * (1 + 2 * e - e * e) / (r * q),
        feasible=cfg.feasible,
    )


@dataclass
class Case6Geometry:
    """Constructions behind the sixth class (triangle ADE and its mirror).

    ``b_constraint_line`` bounds where B may sit so that C stays covered;
    ``right_support_line`` is the steep support at slope (2-eps)/(eps+delta).
    Their intersection height is the critical y; ``intercept_at_y`` is the
    reported chord bound there.  ``doubled_width_at_y`` is the horizontal
    chord of the doubled copy of triangle ADE anchored at A at that height,
    computed edge-by-edge; it independently stays below 2.
    """

    a_prime: Tuple[Fraction, Fraction]
    d_prime: Tuple[Fraction, Fraction]
    e_prime: Tuple[Fraction, Fraction]
    b_constraint_line: Line
    right_support_line: Line
    intersection_x: Fraction
    intersection_y: Fraction
    intercept_at_y: Fraction
    doubled_width_at_y: Fraction


def case6_geometry(cfg: CounterexampleConfig) -> Case6Geometry:
    e = cfg.epsilon
    s = cfg.epsilon + cfg.delta
    q = 2 - e
    r = 1 - e

    a_prime = (Fraction(-1), Fraction(0))
    d_prime = (1 + 2 * s, Fraction(1))
    e_prime = (Fraction(1), 2 * e - 2)

    # y = (x - s)/(1 + s) - 1
    line1 = Line(Fraction(1, 1) / (1 + s), -s / (1 + s) - 1)
    # y = (q/s) (x - 1 - 2 s r / q)
    line2 = Line(q / s, -(q / s) * (1 + 2 * s * r / q))
    ix, iy = intersect(line1, line2)

    # Chord bound at the critical height, in its partially factored form;
    # analytic_case_bounds carries the fully collected equivalent.
    intercept = 2 + s * r / q - 2 * s / (q * r)

    # Horizontal chord of the doubled triangle (A, A + 2(D-A), A + 2(E-A))
    # at the critical height, from the two edges that cross it.
    a = (Fraction(-1), Fraction(0))
    d2 = (a[0] + 2 * (s - a[0]), a[1] + 2 * (1 - a[1]))
    e2 = (a[0] + 2 * (0 - a[0]), a[1] + 2 * ((e - 1) - a[1]))
    tl = (iy - a[1]) / (e2[1] - a[1])
    x_left = a[0] + tl * (e2[0] - a[0])
    tr = (iy - e2[1]) / (d2[1] - e2[1])
    x_right = e2[0] + tr * (d2[0] - e2[0])

    return Case6Geometry(
        a_prime=a_prime,
        d_prime=d_prime,
        e_prime=e_prime,
        b_constraint_line=line1,
        right_support_line=line2,
        intersection_x=ix,
        intersection_y=iy,
        intercept_at_y=intercept,
        doubled_width_at_y=x_right - x_left,
    )


@dataclass
class CaseImplication:
    case: int
    bound: Fraction
    required: Fraction
    certifies: bool  # bound < required, i.e. the chord argument applies
    lp_confirms: bool  # every triangle of the class has lambda* > 2


@dataclass
class CounterexampleReport:
    config: CounterexampleConfig
    feasible: bool
    triangles: List[TriangleCaseReport]
    min_lambda: Fraction
    all_exceed_two: bool
    mirror_symmetric: bool
    bounds: CaseBounds
    geometry: Case6Geometry
    implications: List[CaseImplication]
    implications_ok: bool
    verified: Optional[bool]  # None when the configuration is infeasible


def verify_counterexample(cfg: CounterexampleConfig) -> CounterexampleReport:
    """Exact end-to-end check that every triangle needs dilation above 2."""
    triangles, min_lambda = min_dilation_all(cfg)
    by_label = {t.label: t for t in triangles}
    mirror_ok = all(
        by_label[t.label].lambda_star == by_label[mirror_label(t.label)].lambda_star
        for t in triangles
    )
    bounds = analytic_case_bounds(cfg)
    # Per class, the longest chord at factor 2 and the length it would have
    # to cover: AB for classes 1, 3, 5 and 6, the C-to-E vertical span for
    # class 2, CD for class 4.  The third class repeats the first bound.
    chords = (
        (bounds.case1_intercept, Fraction(2)),
        (bounds.case2_intercept, 2 - cfg.epsilon),
        (bounds.case1_intercept, Fraction(2)),
        (bounds.case4_intercept, 2 * (cfg.epsilon + cfg.delta)),
        (bounds.case5_intercept, Fraction(2)),
        (bounds.case6_intercept, Fraction(2)),
    )
    implications = [
        CaseImplication(
            case=case, bound=bound, required=required, certifies=bound < required,
            lp_confirms=all(t.exceeds_two for t in triangles if t.matched_case == case),
        )
        for case, (bound, required) in enumerate(chords, 1)
    ]
    implications_ok = all((not im.certifies) or im.lp_confirms for im in implications)
    all_exceed = all(t.exceeds_two for t in triangles)
    return CounterexampleReport(
        config=cfg,
        feasible=cfg.feasible,
        triangles=triangles,
        min_lambda=min_lambda,
        all_exceed_two=all_exceed,
        mirror_symmetric=mirror_ok,
        bounds=bounds,
        geometry=case6_geometry(cfg),
        implications=implications,
        implications_ok=implications_ok,
        verified=(all_exceed and mirror_ok and implications_ok) if cfg.feasible else None,
    )


@dataclass
class SweepRow:
    epsilon: Fraction
    delta: Fraction
    feasible: bool
    lambdas: Dict[str, Fraction]  # keyed by triangle label, canonical order
    lambda_min: Fraction
    bounds: CaseBounds
    margin_over_2: Fraction  # lambda_min - 2; descriptive only


def sweep(
    epsilons: Sequence[RationalLike], deltas: Sequence[RationalLike]
) -> List[SweepRow]:
    """Grid scan over (epsilon, delta); a failing dual certificate raises."""
    rows = []
    for e, d in itertools.product(epsilons, deltas):
        cfg = CounterexampleConfig(e, d)
        triangles, min_lambda = min_dilation_all(cfg)
        rows.append(
            SweepRow(
                epsilon=cfg.epsilon,
                delta=cfg.delta,
                feasible=cfg.feasible,
                lambdas={t.label: t.lambda_star for t in triangles},
                lambda_min=min_lambda,
                bounds=analytic_case_bounds(cfg),
                margin_over_2=min_lambda - 2,
            )
        )
    return rows
