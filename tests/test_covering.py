"""Minimal-dilation covers and the two-sided covering guarantee."""
import dataclasses
import random
import warnings
from fractions import Fraction

import pytest

from helpers import (
    ROUNDING_CSV,
    UNIMODULAR_BLOCKS,
    block_sum,
    contains,
    dense_dual,
    halfspace_dilation_lp,
    point_in_simplex,
    rational_points,
    reflect_vertex,
    unimodular_witness,
)
from simplexcover import (
    CoverReport,
    DilationResult,
    DilationSign,
    LPSolution,
    LPStatus,
    PointSet,
    ScalarMode,
    Simplex,
    TheoremViolationError,
    check_certificate,
    dilation_lp,
    halfspace_form,
    john_positive_cover,
    make_simplex,
    min_dilation,
    min_dilations,
    mvs_exact,
    sample_body,
    simplex_volume,
    verify_sandwich,
)
from simplexcover import cli
from simplexcover.errors import LPInternalError, NumericalBreakdownError
from simplexcover.geometry import slab_kernel
from simplexcover.mvs import MvsResult
from simplexcover.serialization import parse_points_csv

F = Fraction

RIGHT = make_simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
TETRA = make_simplex(
    [
        (F(1), F(1), F(1)),
        (F(1), F(-1), F(-1)),
        (F(-1), F(1), F(-1)),
        (F(-1), F(-1), F(1)),
    ]
)


def covering_body(res: DilationResult, t: Simplex) -> Simplex:
    """Materialize translate + lam * (+/-T) as an explicit simplex."""
    s = 1 if res.sign is DilationSign.POSITIVE else -1
    return make_simplex(
        [
            tuple(tv + res.lam * s * v for tv, v in zip(res.translate, vert))
            for vert in t.vertices
        ]
    )


def assert_covers(res: DilationResult, t: Simplex, x: PointSet) -> None:
    body = covering_body(res, t)
    for p in x.points:
        assert point_in_simplex(body, p)


# ---------------------------------------------------------------------------
# hand-checked instances
# ---------------------------------------------------------------------------

def test_square_corners_both_signs():
    corners = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    t = mvs_exact(corners).simplex
    # lex tie-break among the four half-square triangles
    assert t.vertex_indices == (0, 1, 2)

    pos = min_dilation(t, corners, DilationSign.POSITIVE)
    neg = min_dilation(t, corners, DilationSign.NEGATIVE)
    assert pos.lam == 2 and pos.translate == (F(-1), F(0))
    assert neg.lam == 2 and neg.translate == (F(2), F(1))
    # Each facet's first point of largest slab value: for +T the lines x = 1,
    # y = x and y = 0 are pushed out to (1, 0), (0, 1) and (0, 0); for -T
    # the opposite sides reach (0, 0), (1, 0) and (1, 1).
    assert pos.binding == (1, 3, 0) and neg.binding == (0, 1, 2)
    assert_covers(pos, t, corners)
    assert_covers(neg, t, corners)


@pytest.mark.parametrize("t", [RIGHT, TETRA], ids=["d2", "d3"])
def test_own_vertices_positive_one_negative_d(t):
    # Covering conv(T) by a positive translate needs lam = 1; by a negative
    # translate exactly lam = d, the tight case of the negative bound.
    x = PointSet(t.dim, t.vertices)
    assert min_dilation(t, x, DilationSign.POSITIVE).lam == 1
    assert min_dilation(t, x, DilationSign.NEGATIVE).lam == t.dim


def test_unit_interval_d1():
    t = make_simplex([(F(0),), (F(1),)])
    x = PointSet(1, ((F(0),), (F(1),)))
    for sign in DilationSign:
        res = min_dilation(t, x, sign)
        assert res.lam == 1
        assert_covers(res, t, x)


def test_reflected_vertex_needs_positive_two():
    # Appending the facet reflection of one vertex forces lam+ = 2 for the
    # regular tetrahedron: the only dual combination averaging the facet
    # normals to zero is uniform, giving (d+2 + d) / (d+1) = 2.
    vhat = reflect_vertex(TETRA, 0)
    x = PointSet(3, TETRA.vertices + (vhat,))
    res = min_dilation(TETRA, x, DilationSign.POSITIVE)
    assert res.lam == 2
    assert_covers(res, TETRA, x)


@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
@pytest.mark.parametrize("points", [RIGHT.vertices, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]],
                         ids=["exact", "float"])
def test_min_dilations_of_no_simplices_is_empty(sign, points):
    assert min_dilations(PointSet(2, points), [], sign) == []


def test_dilation_lp_shape():
    x = PointSet(2, ((F(0), F(0)), (F(2), F(1)), (F(1), F(3))))
    lp = dilation_lp(RIGHT, x, DilationSign.POSITIVE)
    assert lp.num_vars == 3
    assert len(lp.rows) == 3 * 3
    assert lp.objective == (0, 0, 1)
    assert all(r[-1] == -1 for r in lp.rows)


# ---------------------------------------------------------------------------
# randomized semantic checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sign", list(DilationSign), ids=lambda s: s.value)
def test_random_instances_cover_and_certify(sign):
    for seed in range(12):
        d = 2 + seed % 3
        x = PointSet(d, rational_points(d + 5, d, seed=seed))
        t = mvs_exact(x).simplex
        res = min_dilation(t, x, sign)
        assert_covers(res, t, x)
        # Dual from the reduced LP must certify the full one row for row.
        full = halfspace_dilation_lp(t, x, sign)
        sol = LPSolution(
            status=LPStatus.OPTIMAL,
            z=res.lp_translate + (res.lam,),
            value=res.lam,
            dual=dense_dual(res, len(x)),
        )
        assert check_certificate(full, sol, tol=0)


def test_optimum_is_a_true_minimum():
    # Shrinking lam below the optimum must lose at least one point.
    for seed in range(6):
        x = PointSet(2, rational_points(8, 2, seed=40 + seed))
        t = mvs_exact(x).simplex
        for sign in DilationSign:
            res = min_dilation(t, x, sign)
            shrunk = DilationResult(
                lam=res.lam * F(99, 100),
                sign=sign,
                translate=res.translate,
                binding=res.binding,
                lp_translate=res.lp_translate,
            )
            body = covering_body(shrunk, t)
            assert not all(point_in_simplex(body, p) for p in x.points)


def test_translation_equivariance():
    shift = (F(7, 3), F(-2, 5))
    x = PointSet(2, rational_points(9, 2, seed=77))
    t = mvs_exact(x).simplex
    moved_x = PointSet(2, tuple(tuple(v + s for v, s in zip(p, shift)) for p in x.points))
    moved_t = make_simplex([tuple(v + s for v, s in zip(p, shift)) for p in t.vertices])
    for sign in DilationSign:
        res = min_dilation(t, x, sign)
        moved = min_dilation(moved_t, moved_x, sign)
        assert moved.lam == res.lam
        # covering body shifts with the data: translate picks up (1 -+ lam) s
        k = 1 - res.lam if sign is DilationSign.POSITIVE else 1 + res.lam
        assert moved.translate == tuple(tv + k * s for tv, s in zip(res.translate, shift))


def test_scale_equivariance():
    k = F(7, 2)
    x = PointSet(3, rational_points(10, 3, seed=5))
    t = mvs_exact(x).simplex
    big_x = PointSet(3, tuple(tuple(k * v for v in p) for p in x.points))
    big_t = make_simplex([tuple(k * v for v in p) for p in t.vertices])
    for sign in DilationSign:
        assert min_dilation(big_t, big_x, sign).lam == min_dilation(t, x, sign).lam


# ---------------------------------------------------------------------------
# sandwich reports
# ---------------------------------------------------------------------------

def test_sandwich_slacks_on_own_vertices():
    for t in (RIGHT, TETRA):
        d = t.dim
        rep = verify_sandwich(t, PointSet(d, t.vertices))
        assert rep.ok
        assert rep.local_maximality.slab == [(-d, 1)] * (d + 1)
        assert rep.facet_slacks == [(0, d + 1)] * (d + 1)


def test_sandwich_flags_non_maximal_simplex():
    small = make_simplex([(F(0), F(0)), (F(1, 8), F(0)), (F(0), F(1, 8))])
    x = PointSet(2, small.vertices + ((F(5), F(5)),))
    rep = verify_sandwich(small, x)
    assert not rep.ok
    assert rep.local_maximality.worst_facet is not None
    assert rep.local_maximality.excess > 0
    assert min(outer for _, outer in rep.facet_slacks) < 0


# ---------------------------------------------------------------------------
# the covering guarantee end to end
# ---------------------------------------------------------------------------

def contains_all(body: Simplex, x: PointSet, tol=0) -> bool:
    h = halfspace_form(body)
    return all(contains(h, p, tol=tol) for p in x.points)


def test_john_cover_exact_instances():
    for seed in range(8):
        d = 2 + seed % 3
        x = PointSet(d, rational_points(d + 6, d, seed=100 + seed))
        rep = john_positive_cover(x)
        assert isinstance(rep, CoverReport)
        assert rep.sandwich.ok and rep.centered_containment_ok and rep.bounds_ok
        assert rep.negative.lam <= d
        assert rep.positive.lam <= d + 2
        # the constructive cover: centered (d+2)-dilation, no translate
        cons = rep.d_plus_2_construction
        assert simplex_volume(cons) == (d + 2) ** d * rep.mvs.volume
        assert contains_all(cons, x)
        assert_covers(rep.negative, rep.mvs.simplex, x)


def test_john_negative_cover_shortcut():
    x = PointSet(2, rational_points(9, 2, seed=3))
    res = john_positive_cover(x).negative
    assert res.sign is DilationSign.NEGATIVE
    assert res.lam <= 2


def test_john_cover_float_mode():
    for body, seed in (("disk", 1), ("annulus", 2), ("square", 3)):
        x = sample_body(body, 12, 2, seed=seed, mode=ScalarMode.FLOAT)
        rep = john_positive_cover(x)
        assert rep.sandwich.ok and rep.centered_containment_ok and rep.bounds_ok
        assert rep.negative.lam <= 2 + 1e-9
        assert rep.positive.lam <= 4 + 1e-9


def test_float_points_on_the_outer_shell_pass_at_float_tolerance():
    # The reflected vertices lie on the d+2 shell up to rounding, so a check
    # at exact-mode tolerance 0 would fail most of these float inputs.
    for seed in range(100):
        rng = random.Random(seed)
        t = make_simplex([(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)])
        x = PointSet(2, t.vertices + tuple(reflect_vertex(t, i) for i in range(3)))
        rep = john_positive_cover(x)
        assert rep.sandwich.ok and rep.centered_containment_ok and rep.bounds_ok, seed


def test_escalation_from_bad_local_simplex(monkeypatch):
    # There is no escalation: a local-search simplex that fails a covering
    # check is reported as it is, without a warning or an exact re-run.
    import simplexcover.covering as covering

    corners = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    small = make_simplex([(F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4))])
    bad = MvsResult(simplex=small, volume=simplex_volume(small), method="local-search")
    monkeypatch.setattr(covering, "max_volume_simplex", lambda x, **kw: bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = john_positive_cover(corners)
    assert rep.mvs is bad
    assert rep.mvs.method == "local-search"
    assert not rep.sandwich.ok
    assert not rep.bounds_ok and not rep.centered_containment_ok


def test_exactly_maximal_failure_is_a_theorem_violation(monkeypatch):
    # A covering failure for a certified-exact maximum cannot be escalated
    # away; it has to surface as a theorem violation.
    import simplexcover.covering as covering

    corners = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    small = make_simplex([(F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4))])
    bad = MvsResult(simplex=small, volume=simplex_volume(small), method="exact")
    monkeypatch.setattr(covering, "max_volume_simplex", lambda x, **kw: bad)
    with pytest.raises(TheoremViolationError):
        john_positive_cover(corners)


def test_float_failure_of_an_enumerated_simplex_is_a_breakdown(monkeypatch):
    # The same failure on float input is rounding, not a theorem violation.
    import simplexcover.covering as covering

    corners = PointSet(2, ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    small = make_simplex([(0.0, 0.0), (0.25, 0.0), (0.0, 0.25)])
    bad = MvsResult(simplex=small, volume=simplex_volume(small), method="exact")
    monkeypatch.setattr(covering, "max_volume_simplex", lambda x, **kw: bad)
    with pytest.raises(NumericalBreakdownError, match="rerun in exact mode$"):
        john_positive_cover(corners)


@pytest.mark.parametrize("mode", list(ScalarMode), ids=lambda m: m.value)
def test_failed_containment_check(monkeypatch, mode):
    import simplexcover.covering as covering

    x = rational_points(8, 2, seed=1)
    if mode is ScalarMode.EXACT:
        # The certificate's rows are the exact containment test.  Moving one
        # scaled vertex moves the closed-form point Zn but not those rows,
        # so the point leaves a binding row.
        k = slab_kernel(mvs_exact(x).simplex, x)
        v = k.scaled_vertices
        k = dataclasses.replace(k, scaled_vertices=((v[0][0] + 1,) + v[0][1:],) + v[1:])
        with pytest.raises(LPInternalError,
                           match="^closed-form dilation failed its dual certificate$"):
            covering._kernel_dilations([k], DilationSign.POSITIVE)
        return
    # Shift the translate's term so that no point is contained any more.
    monkeypatch.setattr(covering, "dot", lambda a, b: -1000)
    x = PointSet(2, [tuple(map(float, p)) for p in x.points])
    with pytest.raises(NumericalBreakdownError, match="fails to contain its own input"):
        min_dilation(mvs_exact(x).simplex, x, DilationSign.POSITIVE)


def test_float_certificate_breakdown_asks_for_an_exact_rerun(monkeypatch):
    import simplexcover.covering as covering

    monkeypatch.setattr(covering, "check_certificate", lambda *args, **kwargs: False)
    x = PointSet(2, [tuple(map(float, p)) for p in rational_points(8, 2, seed=1).points])
    with pytest.raises(NumericalBreakdownError, match="rerun in exact mode$"):
        min_dilation(mvs_exact(x).simplex, x, DilationSign.NEGATIVE)


@pytest.mark.parametrize("mode", list(ScalarMode), ids=lambda m: m.value)
@pytest.mark.parametrize("d", [2, 3])
def test_john_builds_one_kernel(monkeypatch, mode, d):
    # The slab check and both dilations read one kernel of the final simplex.
    import simplexcover.covering as covering
    import simplexcover.mvs as mvs

    calls = []

    def counted(t, x):
        calls.append(t)
        return slab_kernel(t, x)

    monkeypatch.setattr(covering, "slab_kernel", counted)
    monkeypatch.setattr(mvs, "slab_kernel", counted)
    x = rational_points(9, d, seed=4)
    if mode is ScalarMode.FLOAT:
        x = PointSet(d, [tuple(map(float, p)) for p in x.points])
    rep = john_positive_cover(x)
    assert rep.mvs.method == "exact" and rep.sandwich.ok
    assert calls == [rep.mvs.simplex]


@pytest.mark.parametrize(
    "argv,frames",
    [
        (["john", "--sample", "square", "--n", "12", "--dim", "2"], 0),  # enumeration
        (["john", "--sample", "square", "--n", "300", "--dim", "3"], 0),  # local search
        (["counterexample", "--epsilon", "1/3", "--delta", "1/4"], 0),
        (["john", "--mode", "float", "--sample", "square", "--n", "12", "--dim", "2"], 2),
    ],
    ids=["exact-john", "exact-local-john", "counterexample", "float-john"],
)
def test_only_float_dilations_derive_the_frame(monkeypatch, argv, frames):
    # Exact dilations run on the kernel's integers; each float dilation
    # derives the centroid and normals once.
    import simplexcover.cli as cli
    import simplexcover.covering as covering

    calls = []

    def counted(k):
        calls.append(k.mode)
        return frame(k)

    frame = covering._frame
    monkeypatch.setattr(covering, "_frame", counted)
    code, _ = cli.run(cli.parse_argv(argv))
    assert code == 0
    assert len(calls) == frames and set(calls) <= {ScalarMode.FLOAT}
    t = make_simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    dilation_lp(t, PointSet(2, [(F(2), F(3))]), DilationSign.NEGATIVE)
    assert calls[frames:] == [ScalarMode.EXACT]


@pytest.mark.parametrize("name", ["flat15", "flat69"])
def test_near_flat_float_rounding_is_a_breakdown(name):
    # flat15 fails the containment check, flat69 the bounds check.
    with pytest.raises(NumericalBreakdownError, match="rerun in exact mode$"):
        john_positive_cover(parse_points_csv(ROUNDING_CSV[name], ScalarMode.FLOAT))
    rep = john_positive_cover(parse_points_csv(ROUNDING_CSV[name], ScalarMode.EXACT))
    assert rep.sandwich.ok and rep.centered_containment_ok and rep.bounds_ok


def test_boundary_point_on_outer_shell():
    # A point sitting exactly on the d+2 shell keeps the guarantee tight:
    # centered containment holds with zero slack.
    vhat = reflect_vertex(RIGHT, 0)
    x = PointSet(2, RIGHT.vertices + (vhat,))
    rep = verify_sandwich(RIGHT, x)
    assert rep.ok
    assert max(hi for _, hi in rep.local_maximality.slab) == 4
    assert min(outer for _, outer in rep.facet_slacks) == 0
    res = min_dilation(RIGHT, x, DilationSign.POSITIVE)
    assert res.lam <= 4
    assert_covers(res, RIGHT, x)


def test_random_float_matches_exact():
    rng = random.Random(9)
    for _ in range(6):
        pts = rational_points(8, 2, seed=rng.randrange(10**6))
        x = PointSet(2, pts)
        xf = PointSet(2, tuple(tuple(float(v) for v in p) for p in pts))
        t = mvs_exact(x).simplex
        tf = make_simplex([tuple(float(v) for v in p) for p in t.vertices])
        for sign in DilationSign:
            exact = min_dilation(t, x, sign)
            approx = min_dilation(tf, xf, sign)
            assert approx.lam == pytest.approx(float(exact.lam), abs=1e-9)


# ---------------------------------------------------------------------------
# Exact anchors beyond the paper's bounds (the witnesses are in
# tests/test_witnesses.py)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_max_volume_segment_needs_no_dilation(seed):
    # In R^1 the longest segment on X runs from min X to max X, so it holds
    # X: lambda+ = 1 for every X, and c(1) = 1.
    x = rational_points(12, 1, seed)
    assert john_positive_cover(x).positive.lam == 1


def test_block_sums_keep_the_unimodular_shape():
    # diag(P1, P2): row sums 1 and a -1 in every column, as the block step
    # needs; on the d = 9 sum the standard simplex needs lambda+ = 11.
    rows = block_sum(UNIMODULAR_BLOCKS[5], UNIMODULAR_BLOCKS[5])
    assert len(rows) == 10 and all(len(r) == 10 and sum(r) == 1 for r in rows)
    assert all(min(col) == -1 for col in zip(*rows))
    points = unimodular_witness(5, 5)
    x = PointSet(9, points)
    t = make_simplex(points[:10])
    assert min_dilation(t, x, DilationSign.POSITIVE).lam == 11
    assert min_dilation(t, x, DilationSign.NEGATIVE).lam == 9
