"""The (simplex, point set) pairs, declared once: every pair (T, X) on which
the slab kernel, the dilations and the slab checks are tested, and the
fixtures they are built from (``RIGHT``, ``TETRA``, ``SQUARE``).  The
catalogue's tests in ``tests/test_kernel.py`` run on every row of
``COVERS``, each on the exact pair and on its ``float_twin``.

A row holds a builder of T and X, both exact, and
- ``maximal``: T is a maximum-volume simplex of X, so the paper's bounds
  apply (``test_theorem``);
- ``full_lp``: ``solve_lp`` solves the full dilation LP as an oracle; it
  takes seconds over the random and tied maximal rows, which skip it;
- ``pins``: per sign, fields of ``min_dilation``'s result and their exact
  values (``lam``, ``translate``, ``binding``);
- ``fact``: at most one further assertion on (T, X).
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from hard_inputs import points
from helpers import rational_points, reflect_vertex, tied_maxima
from simplexcover.covering import DilationSign, verify_sandwich
from simplexcover.geometry import PointSet, Simplex, make_simplex, simplex_volume, slab_kernel
from simplexcover.mvs import mvs_exact

F = Fraction
POS, NEG = DilationSign.POSITIVE, DilationSign.NEGATIVE

RIGHT = make_simplex([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
TETRA = make_simplex(
    [(F(1), F(1), F(1)), (F(1), F(-1), F(-1)), (F(-1), F(1), F(-1)), (F(-1), F(-1), F(1))]
)
SQUARE = PointSet(2, ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))


def csv_text(points) -> str:
    """The CSV text the CLI reads for exact points, one line each."""
    return "".join(",".join(map(str, p)) + "\n" for p in points)


def random_simplex(d: int, seed: int) -> Simplex:
    """A non-degenerate simplex with vertices on the 1/8 grid of [-5, 5]^d."""
    rng = random.Random(seed)
    while True:
        s = Simplex(d, tuple(tuple(F(rng.randint(-40, 40), 8) for _ in range(d))
                             for _ in range(d + 1)))
        if simplex_volume(s) != 0:
            return s


def _coord(rng: random.Random, kind: str) -> Fraction:
    if kind == "grid":
        return F(rng.randint(-64, 64), 64)
    if kind == "far":  # points up to 1000x the size of T
        return F(rng.randint(-64000, 64000), rng.randint(1, 64))
    # bigint: numerators and denominators well past int64
    return F(rng.randint(-(10**30), 10**30), rng.randint(1, 10**12))


def random_instance(d: int, seed: int, kind: str) -> Tuple[Simplex, PointSet]:
    """A random non-degenerate simplex (not from x) and 1 to 7 points x."""
    rng = random.Random(f"{kind}/{d}/{seed}")
    while True:
        verts = [tuple(_coord(rng, "grid" if kind == "far" else kind) for _ in range(d))
                 for _ in range(d + 1)]
        t = Simplex(d, tuple(verts))
        if simplex_volume(t) != 0:
            break
    n = rng.randint(1, 7)
    return t, PointSet(d, [tuple(_coord(rng, kind) for _ in range(d)) for _ in range(n)])


class Cover(NamedTuple):
    pair: Callable[[], Tuple[Simplex, PointSet]]
    maximal: bool = False
    full_lp: bool = True
    pins: Dict[DilationSign, Dict[str, Any]] = {}
    fact: Optional[Callable[[Simplex, PointSet], bool]] = None


@lru_cache(maxsize=None)
def pair(name: str) -> Tuple[Simplex, PointSet]:
    """Row ``name``'s T and X."""
    return COVERS[name].pair()


def float_twin(t: Simplex, x: PointSet) -> Tuple[Simplex, PointSet]:
    """T and X with every coordinate rounded to float."""
    return (Simplex(t.dim, tuple(tuple(map(float, p)) for p in t.vertices)),
            PointSet(x.dim, [tuple(map(float, p)) for p in x.points]))


def _with(t: Simplex, *extra) -> Callable[[], Tuple[Simplex, PointSet]]:
    """T against its own vertices and ``extra``."""
    return lambda: (t, PointSet(t.dim, t.vertices + extra))


def _maximum(x: PointSet) -> Callable[[], Tuple[Simplex, PointSet]]:
    """``mvs_exact``'s simplex against x."""
    return lambda: (mvs_exact(x).simplex, x)


def _tie(d: int, k: int, ties: int) -> Callable[[], Tuple[Simplex, PointSet]]:
    """The k-th of the ``ties`` maximum-volume simplices of ``HARD``'s
    ``tied-grid-d<d>``, in lexicographic order."""
    def build():
        x = points(f"tied-grid-d{d}")
        tied = tied_maxima(x)
        assert len(tied) == ties
        return make_simplex([x.points[i] for i in tied[k]], tied[k]), x
    return build


_OWN = dict(maximal=True,
            fact=lambda t, x: slab_kernel(t, x).slab() == [(-t.dim, 1)] * (t.dim + 1))
_SEEDS = random.Random(9)
_RATIONAL = ([(2 + s % 3, 7 + s % 3, s) for s in range(12)] + [(2, 8, s) for s in range(40, 46)]
             + [(2, 8, _SEEDS.randrange(10**6)) for _ in range(6)])

COVERS: Dict[str, Cover] = {
    # Random simplices, not from X, against points near T, far from it,
    # or with coordinates past int64.
    **{f"d{d}-{kind}-{seed}": Cover(partial(random_instance, d, seed, kind))
       for d in (1, 2, 3, 4, 5) for kind in ("grid", "far", "bigint") for seed in range(3)},
    # The first of the four half-square triangles; for +T the lines x = 1,
    # y = x and y = 0 are pushed out to (1, 0), (0, 1) and (0, 0), for -T
    # the opposite sides reach (0, 0), (1, 0) and (1, 1).
    "square-corners": Cover(_maximum(SQUARE), True, pins={
        POS: dict(lam=2, translate=(F(-1), F(0)), binding=(1, 3, 0)),
        NEG: dict(lam=2, translate=(F(2), F(1)), binding=(0, 1, 2))}),
    # Covering conv(T) needs lam = 1 by +T and exactly lam = d by -T, the
    # tight case of the negative bound; every facet sees [-d, 1].
    **{name: Cover(_with(t), pins={POS: dict(lam=1), NEG: dict(lam=t.dim)}, **_OWN)
       for name, t in (("right-own", RIGHT), ("tetra-own", TETRA),
                       ("d5-own", random_simplex(5, 9)),
                       ("unit-interval", make_simplex([(F(0),), (F(1),)])))},
    # The facet reflection of a vertex forces lam+ = 2 on the regular
    # tetrahedron: the only dual combination averaging the facet normals to
    # zero is uniform, giving (d+2 + d) / (d+1) = 2.  Its simplex ties T.
    "tetra-reflected": Cover(_with(TETRA, reflect_vertex(TETRA, 0)), True,
                             pins={POS: dict(lam=2)}),
    # A point exactly on the d+2 shell: the centered containment is tight.
    "right-reflected": Cover(_with(RIGHT, reflect_vertex(RIGHT, 0)), True,
                             fact=lambda t, x: max(hi for _, hi in slab_kernel(t, x).slab()) == 4),
    # c - 5/2 (v_0 - c), past the reflected vertex at (d+2)/d = 2.
    "right-beyond": Cover(_with(RIGHT, (F(7, 6), F(7, 6))),
                          fact=lambda t, x: slab_kernel(t, x).slab()[0][1] == 5),
    # A small triangle that is not maximal: a point escapes its d+2 shell.
    "eighth-triangle": Cover(
        _with(make_simplex([(F(0), F(0)), (F(1, 8), F(0)), (F(0), F(1, 8))]), (F(5), F(5))),
        fact=lambda t, x: min(outer for _, outer in verify_sandwich(t, x).facet_slacks) < 0),
    # Repeated far points tie on every facet: the first point and the first
    # facet of largest value win.
    "ties": Cover(lambda: (RIGHT, PointSet(2, [(F(0), F(0))] + [(F(9), F(9))] * 2
                                            + [(F(-9), F(-9))] * 2))),
    # The first maximum-volume simplex of random points on the 1/64 grid.
    **{f"rational-d{d}-n{n}-s{seed}": Cover(_maximum(rational_points(n, d, seed)), True, False)
       for d, n, seed in _RATIONAL},
    # Every maximum of the tied grids.
    **{f"tied-grid-d{d}-tie{k}": Cover(_tie(d, k, ties), True, False)
       for d, ties in ((2, 6), (3, 4), (4, 6), (5, 6)) for k in range(ties)},
}
