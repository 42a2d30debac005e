"""Seeded inputs for the three benchmark workloads.

Each workload is a fixed pool of operations built from ``--seed``, ordered
in rounds of one operation of every kind.  Point sets are written as CSV
files under the run's work directory; the program only ever sees those
files or the ``--epsilon/--delta`` strings.

* ``exact-cover``: ``john`` in exact mode, n = 20, d = 2, 3, 4, 5 on the
  1/64 grid (the acceptance fixture's shape) plus one d = 3 set written as
  6-digit decimals.  Its common denominator 10^6 fails the int64 guard, so
  ``mvs_exact`` takes the big-integer (Bareiss) path.
* ``float-local``: ``john --mode float`` on n = 300 uniform cube points,
  d = 2, 3, 4.  C(300, d+1) exceeds the enumeration cap, so local search
  runs instead of the exact enumerator.
* ``ce-sweep``: ``counterexample --epsilon p/q --delta r/q`` with q in
  8..400 and epsilon + delta < 1; two configurations in three are feasible
  (epsilon + delta < 1/2), the third is not.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

Point = Tuple[Fraction, ...]

N_EXACT = 20
GRID = 64
DECIMALS = 10**6
EXACT_ROUNDS = 16
EXACT_DIMS = (2, 3, 4, 5)

N_FLOAT = 300
FLOAT_ROUNDS = 10
FLOAT_DIMS = (2, 3, 4)

CE_CONFIGS = 48
CE_ROUND = 3
CE_Q_RANGE = (8, 400)


@dataclass
class Op:
    """One benchmark operation: the CLI argv plus what the checker needs."""

    key: str  # stable name of the input within the pool
    kind: str  # input family, e.g. "grid-d4"
    argv: List[str]
    exact: bool
    points: Optional[List[Point]] = None  # john inputs, as the checker reads them
    epsilon: Optional[Fraction] = None  # counterexample inputs
    delta: Optional[Fraction] = None


def _decimal(k: int, places: int = 6) -> str:
    sign = "-" if k < 0 else ""
    k = abs(k)
    scale = 10**places
    return f"{sign}{k // scale}.{k % scale:0{places}d}"


def _write_csv(path: str, rows: List[List[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(row) for row in rows) + "\n")


def read_points(path: str, exact: bool) -> List[Point]:
    """The checker's own CSV reader: ``Fraction(s)``, or ``Fraction(float(s))``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if exact:
        return [tuple(Fraction(v) for v in ln.split(",")) for ln in lines]
    return [tuple(Fraction(float(v)) for v in ln.split(",")) for ln in lines]


def _john_op(workdir: str, key: str, kind: str, rows: List[List[str]], exact: bool) -> Op:
    path = os.path.join(workdir, key + ".csv")
    _write_csv(path, rows)
    argv = ["john", "--input", path]
    if not exact:
        argv[1:1] = ["--mode", "float"]
    return Op(key, kind, argv, exact, points=read_points(path, exact))


def exact_cover(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"exact-cover/{seed}")
    ops = []
    for r in range(EXACT_ROUNDS):
        for d in EXACT_DIMS:
            rows = [
                [f"{rng.randint(-GRID, GRID)}/{GRID}" for _ in range(d)]
                for _ in range(N_EXACT)
            ]
            ops.append(_john_op(workdir, f"r{r:02d}-grid-d{d}", f"grid-d{d}", rows, True))
        ks = [[rng.randint(-DECIMALS, DECIMALS) for _ in range(3)] for _ in range(N_EXACT)]
        # One coordinate at the top of the range and coprime to 10 pins the
        # common denominator to 10^6 and the magnitude past the int64 guard.
        ks[0][0] = DECIMALS - 1
        rows = [[_decimal(k) for k in row] for row in ks]
        ops.append(_john_op(workdir, f"r{r:02d}-decimal-d3", "decimal-d3", rows, True))
    return ops


def float_local(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"float-local/{seed}")
    ops = []
    for r in range(FLOAT_ROUNDS):
        for d in FLOAT_DIMS:
            rows = [[repr(rng.uniform(-1.0, 1.0)) for _ in range(d)] for _ in range(N_FLOAT)]
            ops.append(_john_op(workdir, f"r{r:02d}-cube-d{d}", f"cube-d{d}", rows, False))
    return ops


def ce_sweep(seed: int, workdir: str) -> List[Op]:
    rng = random.Random(f"ce-sweep/{seed}")
    ops = []
    for k in range(CE_CONFIGS):
        q = rng.randint(*CE_Q_RANGE)
        feasible = k % CE_ROUND != CE_ROUND - 1
        # p + r < q/2 is feasible (epsilon + delta < 1/2); q/2 <= p + r < q is not.
        lo, hi = (2, (q - 1) // 2) if feasible else ((q + 1) // 2, q - 1)
        total = rng.randint(lo, hi)
        p = rng.randint(1, total - 1)
        eps, dlt = f"{p}/{q}", f"{total - p}/{q}"
        ops.append(
            Op(
                key=f"c{k:02d}",
                kind=f"feasible-{k % CE_ROUND}" if feasible else "infeasible",
                argv=["counterexample", "--epsilon", eps, "--delta", dlt],
                exact=True,
                epsilon=Fraction(eps),
                delta=Fraction(dlt),
            )
        )
    return ops


class Workload(NamedTuple):
    build: Callable[[int, str], List[Op]]
    round_len: int  # operations per round, one of each kind


WORKLOADS: Dict[str, Workload] = {
    "exact-cover": Workload(exact_cover, len(EXACT_DIMS) + 1),
    "float-local": Workload(float_local, len(FLOAT_DIMS)),
    "ce-sweep": Workload(ce_sweep, CE_ROUND),
}
