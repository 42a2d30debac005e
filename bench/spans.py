"""Span tracing from outside the program.

``Tracer`` wraps each listed function at every module of the package that
holds it by name, so both ``from .mvs import mvs_exact`` call sites and
``linalg.solve``-style attribute calls are seen.  Each call records a span
(function, start, end, parent span, operation id) in memory; ``aggregate``
turns the spans into calls, busy time and self time per function.  A call
of a function from inside its own span (recursion, as in ``to_jsonable``)
is folded into the outer span.

Wrappers are installed only inside ``Tracer.active()``, so untraced
operations run the program's own functions with no indirection.
"""
from __future__ import annotations

import gzip
import sys
import time
from contextlib import contextmanager
from math import comb
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# (function id, start, end, parent span index or -1, operation id)
Span = Tuple[int, float, float, int, int]

PACKAGE = "simplexcover"

# Home module and function name of every traced layer boundary.
TRACED: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("cli", "run"),
    ("serialization", "parse_points_file"),
    ("serialization", "to_jsonable"),
    ("serialization", "dumps_report"),
    ("mvs", "mvs_exact"),
    ("mvs", "_best_subset_numpy"),  # int64 (or float64) batched enumeration
    ("mvs", "_best_subset_python"),  # big-integer Bareiss enumeration
    ("mvs", "mvs_local_search"),
    ("mvs", "verify_local_maximality"),
    ("geometry", "halfspace_form"),
    ("covering", "john_positive_cover"),
    ("covering", "min_dilation"),
    ("covering", "verify_sandwich"),
    ("covering", "dilation_lp"),
    ("linprog", "solve_lp"),
    ("linprog", "check_certificate"),
    ("linalg", "solve"),
    ("linalg", "int_det_bareiss"),
    ("counterexample", "verify_counterexample"),
    ("counterexample", "min_dilation_all"),
    ("counterexample", "analytic_case_bounds"),
    ("counterexample", "case6_geometry"),
)

NAMES: Tuple[str, ...] = tuple(f"{m}.{f}" for m, f in TRACED)


def _count_subsets(counts: Dict[str, int], args: Sequence[Any], result: Any) -> None:
    x = args[0]
    counts["mvs.subsets"] += comb(len(x), x.dim + 1)


def _count_swaps(counts: Dict[str, int], args: Sequence[Any], result: Any) -> None:
    counts["mvs.swaps"] += result.swap_count


def _count_iterations(counts: Dict[str, int], args: Sequence[Any], result: Any) -> None:
    counts["linprog.iterations"] += result.iterations


# Work counts read from arguments and results at the same boundaries.
COUNTERS: Dict[str, Callable[[Dict[str, int], Sequence[Any], Any], None]] = {
    "mvs.mvs_exact": _count_subsets,
    "mvs.mvs_local_search": _count_swaps,
    "linprog.solve_lp": _count_iterations,
}
COUNT_NAMES = ("mvs.subsets", "mvs.swaps", "linprog.iterations")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_NAMES}
        self.op = -1
        self._stack: List[Tuple[int, int]] = []  # (span index, function id)
        self._patches: List[Tuple[Any, str, Callable, Callable]] = []
        for fid, (mod_name, fn_name) in enumerate(TRACED):
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(fid, original, COUNTERS.get(NAMES[fid]))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, fid: int, fn: Callable, counter: Optional[Callable]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == fid:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append((fid, 0.0, 0.0, parent, self.op))
            stack.append((index, fid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.op)
            if counter is not None:
                counter(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self, op: int) -> Iterator[None]:
        """Trace the calls made inside the block, attributed to operation ``op``."""
        self.op = op
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)
            self._stack.clear()

    def write(self, path: str) -> None:
        """Write the spans as gzipped CSV: op, name, start_s, end_s, parent."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("op,name,start_s,end_s,parent\n")
            for fid, start, end, parent, op in self.spans:
                fh.write(f"{op},{NAMES[fid]},{start:.9f},{end:.9f},{parent}\n")


def aggregate(spans: Sequence[Span], n_names: int) -> Tuple[List[int], List[float], List[float]]:
    """Per function id: calls, busy time (span durations) and self time.

    Self time is a span's duration minus the durations of its direct
    children, which on one thread never overlap each other.
    """
    child = [0.0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = [0] * n_names
    busy = [0.0] * n_names
    own = [0.0] * n_names
    for k, (fid, start, end, _, _) in enumerate(spans):
        calls[fid] += 1
        busy[fid] += end - start
        own[fid] += end - start - child[k]
    return calls, busy, own
