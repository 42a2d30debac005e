"""The five-point family whose every triangle needs dilation above 2."""
from fractions import Fraction

import pytest

from helpers import dense_dual, halfspace_dilation_lp
from simplexcover import (
    CounterexampleConfig,
    DegenerateSimplexError,
    DilationSign,
    LPSolution,
    LPStatus,
    PointSet,
    build_points,
    check_certificate,
    enumerate_triangles,
    sweep,
    verify_counterexample,
)
from simplexcover.counterexample import (
    CASE_OF_LABEL,
    TRIANGLE_LABELS,
    Line,
    analytic_case_bounds,
    case6_geometry,
    intersect,
    min_dilation_all,
    mirror_label,
)
from simplexcover import cli
from simplexcover.errors import LPInternalError
from simplexcover.geometry import slab_kernels

F = Fraction
FIFTH = CounterexampleConfig(F(1, 5), F(1, 5))

# lambda* per triangle at epsilon = delta = 1/5, worked through the dilation
# LP by hand once and frozen here.
FROZEN_LAMBDAS = {
    "CDE": F(55, 18),
    "ABE": F(9, 4),
    "ACD": F(73, 20),
    "BCD": F(73, 20),
    "ABC": F(11, 5),
    "ABD": F(11, 5),
    "ACE": F(90, 37),
    "BDE": F(90, 37),
    "ADE": F(110, 53),
    "BCE": F(110, 53),
}


# ---------------------------------------------------------------------------
# configuration and point family
# ---------------------------------------------------------------------------

def test_config_accepts_rational_likes():
    cfg = CounterexampleConfig("1/5", "3/10")
    assert cfg.epsilon == F(1, 5) and cfg.delta == F(3, 10)
    assert not cfg.feasible  # 1/5 + 3/10 = 1/2 exactly, not below


def test_config_rejects_floats():
    with pytest.raises(TypeError):
        CounterexampleConfig(0.2, F(1, 5))
    with pytest.raises(TypeError):
        CounterexampleConfig(F(1, 5), 0.2)


@pytest.mark.parametrize("eps,dlt", [(0, "1/5"), (1, "1/5"), ("1/5", "3/2"), (-1, "1/5")])
def test_config_rejects_out_of_range(eps, dlt):
    with pytest.raises(ValueError):
        CounterexampleConfig(eps, dlt)


def test_feasibility_threshold():
    assert CounterexampleConfig(F(1, 5), F(29, 100)).feasible
    assert not CounterexampleConfig(F(1, 5), F(3, 10)).feasible
    assert not CounterexampleConfig(F(2, 5), F(2, 5)).feasible


def test_build_points_frozen():
    x = build_points(FIFTH)
    assert x.points == (
        (F(-1), F(0)),
        (F(1), F(0)),
        (F(-2, 5), F(1)),
        (F(2, 5), F(1)),
        (F(0), F(-4, 5)),
    )


def test_enumerate_triangles_order_and_indices():
    tris = enumerate_triangles(build_points(FIFTH))
    assert len(tris) == 10
    labels = ["".join("ABCDE"[i] for i in t.vertex_indices) for t in tris]
    assert tuple(labels) == TRIANGLE_LABELS


def test_enumerate_triangles_names_degenerate_triple():
    # E on segment AB degenerates ABE; the error says which triangle.
    x = PointSet(2, (
        (F(-1), F(0)), (F(1), F(0)), (F(-1, 4), F(1)), (F(1, 4), F(1)), (F(0), F(0)),
    ))
    with pytest.raises(DegenerateSimplexError, match="triangle ABE"):
        enumerate_triangles(x)


def test_enumerate_triangles_wants_five_planar_points():
    with pytest.raises(ValueError):
        enumerate_triangles(PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))))


def test_mirror_label():
    assert mirror_label("ADE") == "BCE"
    assert mirror_label("ACD") == "BCD"
    assert mirror_label("CDE") == "CDE"
    assert mirror_label("ABE") == "ABE"
    # involution over the whole canonical list
    for label in TRIANGLE_LABELS:
        assert mirror_label(mirror_label(label)) == label
        assert CASE_OF_LABEL[mirror_label(label)] == CASE_OF_LABEL[label]


# ---------------------------------------------------------------------------
# frozen exact values at epsilon = delta = 1/5
# ---------------------------------------------------------------------------

def certificates_hold(cfg, triangles) -> bool:
    """Each triangle's ``binding`` dual certifies its full dilation LP."""
    x = build_points(cfg)
    for tri, t in zip(triangles, enumerate_triangles(x)):
        res = tri.dilation
        sol = LPSolution(
            LPStatus.OPTIMAL, z=res.lp_translate + (res.lam,), value=res.lam,
            dual=dense_dual(res, len(x)),
        )
        if not check_certificate(halfspace_dilation_lp(t, x, DilationSign.POSITIVE), sol, tol=0):
            return False
    return True


def test_all_ten_lambdas_frozen():
    reports, min_lambda = min_dilation_all(FIFTH)
    assert {r.label: r.lambda_star for r in reports} == FROZEN_LAMBDAS
    assert min_lambda == F(110, 53)
    assert all(r.exceeds_two for r in reports) and certificates_hold(FIFTH, reports)
    assert all(r.matched_case == CASE_OF_LABEL[r.label] for r in reports)


def test_case_bounds_frozen():
    b = analytic_case_bounds(FIFTH)
    assert b.case1_intercept == F(8, 5)
    assert b.case2_intercept == F(8, 5)
    assert b.case4_intercept == F(2, 5)
    assert b.case5_intercept == F(74, 45)
    assert b.case6_y == F(-20, 53)
    assert b.case6_intercept == F(73, 45)
    assert b.feasible


def test_case6_geometry_frozen():
    g = case6_geometry(FIFTH)
    assert g.a_prime == (F(-1), F(0))
    assert g.d_prime == (F(9, 5), F(1))
    assert g.e_prime == (F(1), F(-8, 5))
    assert g.intersection_y == F(-20, 53)
    assert g.intercept_at_y == F(73, 45)
    assert g.doubled_width_at_y == F(9, 5)


def test_case6_intersection_lies_on_both_lines():
    g = case6_geometry(FIFTH)
    assert g.b_constraint_line.y_at(g.intersection_x) == g.intersection_y
    assert g.right_support_line.y_at(g.intersection_x) == g.intersection_y


@pytest.mark.parametrize(
    "eps,dlt",
    [(F(1, 5), F(1, 5)), (F(1, 7), F(1, 11)), (F(3, 20), F(1, 10)), (F(1, 20), F(2, 5))],
)
def test_case6_identities_hold_generally(eps, dlt):
    cfg = CounterexampleConfig(eps, dlt)
    e, s = eps, eps + dlt
    q, r = 2 - e, 1 - e
    g = case6_geometry(cfg)
    b = analytic_case_bounds(cfg)
    # partially factored intercept == fully collected form
    assert g.intercept_at_y == 2 - s * (1 + 2 * e - e * e) / (r * q)
    assert g.intercept_at_y == b.case6_intercept
    # the critical height from the explicit line intersection
    assert g.intersection_y == -2 / (q / s + r) == b.case6_y
    # chord of the doubled ADE triangle collapses to a one-line expression
    assert g.doubled_width_at_y == 2 - 2 * e * s / r
    assert g.doubled_width_at_y < 2


def test_line_helpers():
    ln = Line(F(2), F(-1))
    assert ln.y_at(F(3)) == 5
    assert intersect(Line(F(1), F(0)), Line(F(-1), F(2))) == (F(1), F(1))
    with pytest.raises(ValueError):
        intersect(Line(F(1), F(0)), Line(F(1), F(5)))


# ---------------------------------------------------------------------------
# end-to-end verification
# ---------------------------------------------------------------------------

def test_verify_at_one_fifth():
    rep = verify_counterexample(FIFTH)
    assert rep.feasible and rep.verified is True
    assert rep.min_lambda == F(110, 53)
    assert rep.all_exceed_two and rep.mirror_symmetric
    assert certificates_hold(FIFTH, rep.triangles)
    assert rep.implications_ok
    # at this configuration every chord bound certifies and the LP agrees
    for im in rep.implications:
        assert im.certifies and im.lp_confirms
        assert im.bound < im.required


def test_minimum_attained_by_sixth_class():
    rep = verify_counterexample(FIFTH)
    winners = [t.label for t in rep.triangles if t.lambda_star == rep.min_lambda]
    assert sorted(winners) == ["ADE", "BCE"]
    assert all(CASE_OF_LABEL[w] == 6 for w in winners)


@pytest.mark.parametrize(
    "eps,dlt",
    [(F(1, 20), F(1, 20)), (F(3, 20), F(1, 10)), (F(1, 10), F(7, 20)), (F(1, 100), F(2, 5))],
)
def test_verify_other_feasible_configs(eps, dlt):
    cfg = CounterexampleConfig(eps, dlt)
    rep = verify_counterexample(cfg)
    assert rep.verified is True
    assert rep.min_lambda > 2
    assert rep.mirror_symmetric and rep.implications_ok
    assert certificates_hold(cfg, rep.triangles)


def test_failing_implication_is_not_verified(monkeypatch):
    import simplexcover.counterexample as counterexample

    real = counterexample.CaseImplication

    def case6_unconfirmed(**fields):
        if fields["case"] == 6:
            fields["lp_confirms"] = False
        return real(**fields)

    monkeypatch.setattr(counterexample, "CaseImplication", case6_unconfirmed)
    rep = verify_counterexample(FIFTH)
    assert rep.all_exceed_two and rep.mirror_symmetric
    assert certificates_hold(FIFTH, rep.triangles)
    assert not rep.implications_ok
    assert rep.verified is False


def test_infeasible_config_reports_none():
    rep = verify_counterexample(CounterexampleConfig(F(2, 5), F(2, 5)))
    assert not rep.feasible
    assert rep.verified is None
    assert not rep.bounds.feasible
    # the data is still there, it just certifies nothing
    assert len(rep.triangles) == 10


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_grid_frozen():
    rows = sweep([F(1, 10), F(1, 5)], [F(1, 10), F(1, 5)])
    got = [(r.epsilon, r.delta, r.lambda_min) for r in rows]
    assert got == [
        (F(1, 10), F(1, 10), F(105, 52)),
        (F(1, 10), F(1, 5), F(440, 217)),
        (F(1, 5), F(1, 10), F(35, 17)),
        (F(1, 5), F(1, 5), F(110, 53)),
    ]
    for r in rows:
        assert r.feasible
        assert r.margin_over_2 == r.lambda_min - 2
        assert tuple(r.lambdas) == TRIANGLE_LABELS
        assert min(r.lambdas.values()) == r.lambda_min


def test_sweep_raises_on_a_failing_certificate(monkeypatch):
    import simplexcover.covering as covering

    monkeypatch.setattr(covering, "check_certificate", lambda *args, **kwargs: False)
    with pytest.raises(LPInternalError, match="closed-form dilation failed its dual certificate"):
        sweep([F(1, 5)], [F(1, 5)])
    # The command fails the same way on both sides of feasibility.
    for eps, dlt in (("1/5", "1/5"), ("1/3", "1/4")):
        code, rep = cli.run(cli.parse_argv(["counterexample", "--epsilon", eps, "--delta", dlt]))
        assert code == 2
        assert rep["error_kind"] == "theorem-violation"


def test_each_triangle_builds_one_kernel(monkeypatch):
    # One batched kernel call builds the ten triangles' kernels, and each
    # triangle's dilation is still checked on its own certificate.
    import simplexcover.covering as covering

    batches, checks = [], []

    def counted_kernels(x, simplices):
        batches.append(list(simplices))
        return slab_kernels(x, simplices)

    def counted_check(*args, **kwargs):
        checks.append(args[0])
        return check_certificate(*args, **kwargs)

    monkeypatch.setattr(covering, "slab_kernels", counted_kernels)
    monkeypatch.setattr(covering, "slab_kernel", None)  # no single-kernel path
    monkeypatch.setattr(covering, "check_certificate", counted_check)
    triangles, _ = min_dilation_all(FIFTH)
    assert [[t.vertex_indices for t in b] for b in batches] == [
        [t.vertex_indices for t in triangles]
    ]
    assert len(checks) == 10
    assert all(len(lp.rows) == 3 for lp in checks)


def test_sweep_accepts_strings():
    (row,) = sweep(["1/5"], ["1/5"])
    assert row.lambda_min == F(110, 53)
