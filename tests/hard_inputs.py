"""The hard inputs, declared once: point files that stress the subset
walk's rounding filter, the farthest-pair scan's margin and scaling, the
float slab kernel or a dilation's certificate.  A row holds the CSV text
the CLI reads, its mode, what each runner of ``tests/test_hard_inputs.py``
expects (``None`` skips one) and at most one further assertion, ``fact``.
``walk`` is (filtered, rescored): whether the walk takes its rounding
filter, and whether it rescores the first maximum only, some near-ties or
every subset.  ``john``, ``float_john`` and ``local`` are what exact
``john``, float ``john`` and float ``mvs --local`` print: ``OK`` (exit 0)
or the error of exit 1.  ``test_farthest_pair_matches_the_full_scan`` in
``tests/test_local_search.py`` runs on every row too.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from helpers import det, reference_farthest_pair
from simplexcover.geometry import PointSet
from simplexcover.linalg import int_det_bareiss
from simplexcover.mvs import MvsResult
from simplexcover.scalars import ScalarMode
from simplexcover.serialization import parse_points_csv

F = Fraction
EXACT, FLOAT = ScalarMode.EXACT, ScalarMode.FLOAT
OK = ""
FIRST, TIES, ALL = "first", "ties", "all"
SPANS_NOTHING = "points do not affinely span the ambient space"
REVISITED = "local search revisited a simplex in float mode; rerun in exact mode"
CERTIFICATE = "dilation certificate failed in float mode; rerun in exact mode"
SINGULAR = ("the float slab kernel rounded a non-degenerate simplex to a singular one; "
            "rerun in exact mode")


class Hard(NamedTuple):
    text: Callable[[], str]  # the CSV text the CLI reads
    mode: ScalarMode = EXACT
    john: str = OK
    walk: Optional[Tuple[bool, str]] = None
    float_john: Optional[str] = None
    local: Optional[str] = None
    fact: Optional[Callable[[PointSet, MvsResult], bool]] = None


def points(name: str) -> PointSet:
    """Row ``name``'s text, read in its mode."""
    return parse_points_csv(HARD[name].text(), HARD[name].mode)


def _rows(build: Callable[..., Sequence[Sequence]], *args) -> Callable[[], str]:
    """The CSV text of ``build(*args)``: floats by ``repr``, other numbers by ``str``."""
    return lambda: "".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                           + "\n" for row in build(*args))


def _text(points: str) -> Callable[[], str]:
    """The CSV text of whitespace-separated points."""
    return lambda: "".join(p + "\n" for p in points.split())


def _random(seed, n: int, d: int, draw: Callable[[random.Random], Any]) -> list:
    """n rows of d values, each drawn by ``draw`` from ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [[draw(rng) for _ in range(d)] for _ in range(n)]


def _boundary(d: int, past: int):
    """Corners of [0, r]^d, which tie often, at the largest r with exact
    scores, plus ``past``."""
    rng = random.Random(d)
    pattern = [[0] * d, [1] * d] + [[int(i == k) for i in range(d)] for k in range(d)]
    pattern.insert(rng.randrange(len(pattern)), [rng.randint(0, 1) for _ in range(d)])
    lo, hi = 1, 2**53  # d! lo^d < 2^53 <= d! hi^d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if factorial(d) * mid**d < 2**53 else (lo, mid)
    return [[(lo + past) * v for v in row] for row in pattern]


def _tied_grid(d: int):
    """d + 5 points of the 1/2 grid in [-1, 1]^d, two of them repeats."""
    rng = random.Random(2)
    pts = [tuple(F(rng.randint(-2, 2), 2) for _ in range(d)) for _ in range(d + 3)]
    for _ in range(2):
        pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
    return pts


def _decimals(seed: int):
    """20 points of R^3 with 6 decimals, the exact-cover benchmark's shape."""
    ks = _random(seed, 20, 3, lambda g: g.randint(-10**6, 10**6))
    ks[0][0] = 10**6 - 1
    return [[F(k, 10**6) for k in row] for row in ks]


def _one_apart(d: int):
    """0, L and -1 on the first axis, then e_2, ..., e_d: the simplices that
    drop one of the three have |det| L, 1 and L + 1, every other is flat,
    and float(L) == float(L + 1)."""
    rows = [[t] + [0] * (d - 1) for t in (0, 2**61 + 12345, -1)] + [[0] * d] * (d - 1)
    return [row if k < 3 else [int(q == k - 2) for q in range(d)] for k, row in enumerate(rows)]


def _reverse_2_60(seed: int):
    """A triangle near 2^60 and a copy moved by at most 3 per coordinate."""
    rng = random.Random(seed)
    base = [[rng.randint(0, 2**60) for _ in range(2)] for _ in range(3)]
    rows = base + [[v + rng.randint(-3, 3) for v in p] for p in base]
    rng.shuffle(rows)
    return rows


def _max_ties(x: PointSet, res: MvsResult) -> bool:
    """At least three subsets attain the maximum: the tie-break decides."""
    P = x.array.tolist()
    dets = [abs(int_det_bareiss([[P[i][k] - P[c[0]][k] for k in range(x.dim)] for i in c[1:]]))
            for c in itertools.combinations(range(len(x)), x.dim + 1)]
    return dets.count(max(dets)) >= 3


def _float_dets_disagree(x: PointSet, res: MvsResult) -> bool:
    """The float64 determinants of the points pick another triangle."""
    P = np.array(x.points, dtype=float)
    return max(itertools.combinations(range(len(x)), 3), key=lambda c: abs(
        det((P[list(c[1:])] - P[c[0]]).tolist()))) != res.simplex.vertex_indices


# The subset walk is exact without a filter when d! r^d < 2^53 on [0, r].
WALK: Dict[str, Hard] = {
    **{f"thresholds-d{d}": Hard(_rows(lambda d, r: [[0] * d, [r] * d] + _random(
        d, d + 2, d, lambda g: g.randint(0, r)), d, r), walk=(d == 6, FIRST))
       for d, r in ((2, 64), (5, 128), (6, 10**9))},
    **{f"bound-d{d}{suffix}": Hard(_rows(_boundary, d, past),
                                   walk=(past == 1, TIES if past and d <= 2 else FIRST))
       for d in range(1, 8) for suffix, past in (("", 0), ("-past", 1))},
    **{f"tied-grid-d{d}": Hard(_rows(_tied_grid, d), walk=(False, FIRST), fact=_max_ties)
       for d in range(1, 8)},
    # Integers spanning about 2 * 10^6, so 3! r^3 passes 2^53.
    **{f"decimal-d3-s{seed}": Hard(_rows(_decimals, seed), walk=(True, FIRST),
                                   fact=lambda x, res: x.scale == 10**6) for seed in range(3)},
    "ints-1e14": Hard(_rows(_random, 4, 8, 3, lambda g: g.randint(-10**14, 10**14)),
                      walk=(True, FIRST)),
    # Only the exact rescoring finds that the lexicographically last wins.
    **{f"one-apart-d{d}": Hard(
        _rows(_one_apart, d), walk=(True, TIES if d == 1 else ALL),
        fact=lambda x, res: res.simplex.vertex_indices == tuple(range(1, len(x))))
       for d in range(1, 6)},
    # Float64 determinants pick a wrong triangle, and a rounding bound 100
    # times smaller than the walk's misses the right one.
    **{f"reverse-2^60-s{seed}": Hard(_rows(_reverse_2_60, seed), walk=(True, TIES),
                                     fact=_float_dets_disagree) for seed in (10, 13, 593)},
    # The cube's corners four times over: of 4^(d+1) or more ties, only the first is rescored.
    **{f"corners-x4-d{d}": Hard(_rows(lambda d: [*itertools.product((0, 1), repeat=d)] * 4, d),
                                walk=(False, FIRST)) for d in (1, 2, 3)},
    # Translated by the column minima, offsets below 50 need no filter.
    **{f"cluster-1e15-d{d}": Hard(_rows(_random, d, d + 6, d,
                                        lambda g: 10**15 + g.randint(-50, 50)),
                                  walk=(False, FIRST)) for d in (2, 3, 4)},
    # Numerators up to 3^40 > 2^63 round on the way into float64.
    "denominators-3^40": Hard(_rows(_random, 40, 10, 3,
                                    lambda g: F(g.randint(-3**40, 3**40), 3**40)),
                              walk=(True, FIRST), fact=lambda x, res: x.scale == 3**40),
    # Scaling into [0, 1) must not overflow; tiny products underflow silently.
    **{f"ints-1e200-d{d}": Hard(_rows(_random, 200 + d, d + 6, d, lambda g: g.choice(
        (g.randint(-10**200, 10**200), g.randint(-5, 5)))), walk=(True, FIRST)) for d in (2, 3)},
    # i 10^30 (1, ..., 1) plus offsets in {0, 1, 2}: every score is a near-tie.
    **{f"near-flat-1e30-d{d}": Hard(_rows(lambda d: [
        [i * 10**30 + v for v in row]
        for i, row in enumerate(_random(d, 12, d, lambda g: g.randint(0, 2)))], d),
        walk=(True, ALL)) for d in (2, 3)},
    # Binary rationals of ~1,330 bits; the volume rounds to inf.
    **{f"floats-1e200-d{d}": Hard(
        _rows(_random, 300 + d, d + 6, d, lambda g: g.uniform(-1, 1) * g.choice((1e200, 1e-200))),
        FLOAT, walk=(True, FIRST), float_john=SINGULAR, local=SPANS_NOTHING,
        fact=lambda x, res: res.volume == float("inf")) for d in (2, 3)},
}


@lru_cache(maxsize=None)
def _pair_arrays() -> Dict[str, np.ndarray]:
    """Pruning keeps few rows, every row, or must not run."""
    rng = np.random.default_rng(19)
    cases = {}
    for d in (1, 2, 3, 5):
        cube = rng.uniform(-1.0, 1.0, (300, d))
        norms = np.sqrt((cube ** 2).sum(axis=1))[:, None]
        cases[f"cube-d{d}"] = cube
        cases[f"ball-d{d}"] = cube[norms[:, 0] <= 1]
        cases[f"sphere-d{d}"] = cube / norms
        cases[f"tiny-d{d}"] = cube * 1e-200
        cases[f"subnormal-d{d}"] = cube * 1e-160  # squares lose their low bits
        cases[f"big-d{d}"] = cube * 1e160
        lattice = rng.integers(-3, 4, (200, d))
        cases[f"lattice-d{d}"] = lattice.astype(np.float64)
        cases[f"lattice-exact-d{d}"] = lattice.astype(object)
        ints = rng.integers(-50, 51, (60, d)).astype(object)
        cases[f"near-1e400-d{d}"] = ints + 10**400
        cases[f"near-2^53-d{d}"] = ints + (2**53 - 50)
        cases[f"past-2^53-d{d}"] = ints + (2**53 + 51)
        # The farthest pair of the cube, written again at several places.
        a, b = reference_farthest_pair(cube)
        dup = cube[:100].copy()
        dup[[10, 40, 70]], dup[[20, 60, 90]] = cube[a], cube[b]
        cases[f"dup-max-d{d}"] = dup
        cases[f"equal-d{d}"] = np.full((40, d), 0.3)
        cases[f"equal-exact-d{d}"] = np.full((40, d), 7, dtype=object)
    return cases


# Float john where it does not pass: at 1e160 and below 1e-150 the local
# search seed's Gram scores overflow or underflow (ROADMAP item 5).
PAIR_FLOAT_ERRORS = {
    "big-d1": CERTIFICATE,
    **{f"{kind}-d{d}": SPANS_NOTHING for kind in ("tiny", "subnormal", "big") for d in (2, 3, 5)},
    **{f"equal-d{d}": SPANS_NOTHING for d in (1, 2, 3, 5)},
}

PAIR: Dict[str, Hard] = {
    **{name: Hard(_rows(lambda a: _pair_arrays()[a].tolist(), name), mode,
                  SPANS_NOTHING if kind.startswith("equal") else OK,
                  float_john=PAIR_FLOAT_ERRORS.get(name, OK) if mode is FLOAT else None)
       for mode, kinds in ((FLOAT, ("cube", "ball", "sphere", "tiny", "subnormal", "big",
                                    "lattice", "dup-max", "equal")),
                           (EXACT, ("lattice-exact", "near-1e400", "near-2^53", "past-2^53",
                                    "equal-exact")))
       for kind in kinds for name in (f"{kind}-d{d}" for d in (1, 2, 3, 5))},
    "mixed-scales": Hard(_text("1e-200,1.0 0.5,-1e-200 1e-300,1e-300 -0.5,0.25"), FLOAT,
                         float_john=OK),
}


A7 = "-0.8344507149397993,-0.2764828784644533,0.18490558275547886,-0.33755496442423527 "

# Float john breaks down on square-1e200, square-1e-200, revisit-huge,
# flat15, flat69 and line5 today; ROADMAP item 5 will make it answer there.
ROUNDING: Dict[str, Hard] = {
    # Within ~1e-16 of a line: rounding fails float john's containment check.
    "flat15": Hard(_text(
        "0.04263379776465315,0.012790139329384248 -0.9276471114454758,-0.2782941334336363 "
        "0.8260276911607303,0.24780830734821466 -0.522100046025505,-0.15663001380766417 "
        "-0.8901035654620639,-0.2670310696386203"), FLOAT, walk=(True, ALL),
        float_john="optimal dilation fails to contain its own input in float mode; "
                   "rerun in exact mode", local=SPANS_NOTHING),
    # As flat15, but rounding fails the bounds check.
    "flat69": Hard(_text(
        "0.6027836079435767,0.1808350823830745 -0.8666486351918601,-0.2599945905575591 "
        "-0.31076505291408263,-0.09322951587422695 0.8397546099815116,0.2519263829944516 "
        "0.7461402533658015,0.22384207600974101"), FLOAT, walk=(True, ALL),
        float_john="covering check failed in float mode: sandwich=True centered=True "
                   "bounds=False; rerun in exact mode", local=REVISITED),
    # Nearly collinear: float64 determinants chose a simplex that is not maximal.
    "line5": Hard(_text(
        "-0.6572563854866372,-0.07957649402077338 -0.6675022826533001,-0.09297480668652147 "
        "0.5176214987409304,1.4567829853785854 -0.08485086157189672,0.6689444072005052 "
        "-0.10942879789360656,0.6368044325198526"), FLOAT, walk=(True, ALL),
        float_john=CERTIFICATE, local=SINGULAR),
    # Four of seven equal: a float copy of a chosen vertex wins the seed's score.
    "dup7": Hard(_text(
        A7 + "-0.9993267331250031,-0.38303786252115746,0.3032310402309326,-0.699974682816463 "
        + A7 + "-0.7312404559023609,-0.5122084033505905,-0.08510753824687534,-0.7239361243726059 "
        + A7 + "0.01289751452298904,-0.22084843524787878,0.2213432586058699,0.4947927508368488 "
        + A7), FLOAT, SPANS_NOTHING, (True, ALL), SPANS_NOTHING, SPANS_NOTHING),
    # Two points near 1e200, and seven of R^4 on x4 = 0.3 (x1 + x2 + x3): the
    # float swap search's largest |u - 1| sits at a vertex's own column.
    "revisit-huge": Hard(_text("-7.3e199 6.9e199"), FLOAT, walk=(True, FIRST),
                         float_john=CERTIFICATE, local=REVISITED),
    "revisit-coplanar": Hard(_rows(lambda: [[*p, 0.3 * (p[0] + p[1] + p[2])] for p in _random(
        0, 7, 3, lambda g: g.uniform(-1, 1))]), FLOAT, walk=(True, ALL), float_john=CERTIFICATE,
        local=REVISITED),
    # Collinear, but rounding scores further seed vertices above 0.
    "line8": Hard(_rows(lambda: [[0.7 * k * c for c in (1, 2, 3, 4)] for k in range(1, 9)]),
                  FLOAT, SPANS_NOTHING, (True, ALL), SPANS_NOTHING, SPANS_NOTHING),
    # The unit square times 1e200 (volume inf) and 1e-200 (singular kernel).
    "square-1e200": Hard(_text("0,0 1e200,0 0,1e200 1e200,1e200"), FLOAT,
                         walk=(True, ALL), float_john=CERTIFICATE, local=SPANS_NOTHING),
    "square-1e-200": Hard(_text("0.0,0.0 1e-200,0.0 0.0,1e-200 1e-200,1e-200"), FLOAT,
                          walk=(True, ALL), float_john=SINGULAR, local=SPANS_NOTHING),
    "line-1e160": Hard(_text("0 1e160 -1e160"), FLOAT, walk=(True, FIRST),
                       float_john=CERTIFICATE, local=REVISITED),
    # Both ends lie L/2 from the box centre: only the pair pruning's margin keeps them.
    "segment": Hard(_text("-1 0.3"), FLOAT, walk=(True, FIRST), float_john=OK, local=OK),
}

HARD: Dict[str, Hard] = {**WALK, **PAIR, **ROUNDING}
