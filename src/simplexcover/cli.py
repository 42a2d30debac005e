"""Command line front end.

Every command prints one JSON report to stdout ({"schema_version": 2, ...})
and exits 0 on success, 1 on an input or numeric problem, and 2 when a
proved bound fails to hold, so automation can tell "bad input" from "bug".
Reports are deterministic for a fixed (config, seed) apart from the
timings block.  Every field carries information: a dilation's dual
certificate is its d+1 ``binding`` point indices, each of weight 1/(d+1),
not a dense vector over all (d+1) * n LP rows.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .counterexample import (
    CounterexampleConfig,
    build_points,
    sweep,
    verify_counterexample,
)
from .covering import DilationSign, john_positive_cover, min_dilation
from .errors import (
    DegeneratePointSetError,
    DegenerateSimplexError,
    DimensionMismatchError,
    EnumerationCapError,
    InputFormatError,
    LPInternalError,
    NumericalBreakdownError,
    TheoremViolationError,
)
from .geometry import PointSet, dilate_about_center, make_simplex
from .mvs import DEFAULT_ENUM_CAP, max_volume_simplex, mvs_exact, mvs_local_search
from .mvs import verify_local_maximality
from .render import SimplexStyle, render_scene_2d
from .sampling import BODIES, sample_body
from .scalars import ScalarMode, default_tol, scalar_to_str
from .serialization import (
    dumps_report,
    parse_points_file,
    sweep_rows_to_csv,
    to_jsonable,
)

SCHEMA_VERSION = 2


@dataclass
class RunConfig:
    command: str
    input: Optional[str] = None
    fmt: str = "auto"
    output: Optional[str] = None
    mode: ScalarMode = ScalarMode.EXACT
    tol: Optional[float] = None
    seed: int = 0
    enum_cap: int = DEFAULT_ENUM_CAP
    body: Optional[str] = None
    n: Optional[int] = None
    dim: Optional[int] = None
    local: bool = False
    simplex: Optional[str] = None
    sign: str = "positive"
    epsilon: Optional[str] = None
    delta: Optional[str] = None
    epsilons: Optional[str] = None
    deltas: Optional[str] = None
    csv: Optional[str] = None
    trials: int = 1
    jobs: int = 1

    @property
    def check_tol(self) -> float:
        """CLI-level check tolerance: ``default_tol``, or --tol in float mode."""
        if self.tol is None or self.mode is ScalarMode.EXACT:
            return default_tol(self.mode)
        return self.tol


def _load_points(cfg: RunConfig) -> PointSet:
    if cfg.input is not None:
        return parse_points_file(cfg.input, cfg.fmt, cfg.mode)
    if cfg.body is not None:
        if cfg.n is None or cfg.dim is None:
            raise InputFormatError("--sample needs --n and --dim")
        return sample_body(cfg.body, cfg.n, cfg.dim, cfg.seed, cfg.mode)
    raise InputFormatError("no input: pass --input FILE or --sample BODY")


def _violations(slab_ok: bool, cover=None) -> List[str]:
    """The messages of the failed checks: the swap-local slab check, then a
    cover report's centered containment and dilation bounds."""
    checks = [(slab_ok, "maximum simplex fails the swap-local slab check")]
    if cover is not None:
        checks += [(cover.centered_containment_ok, "points escape the centered (d+2)-dilation"),
                   (cover.bounds_ok, "a dilation optimum exceeds its guaranteed bound")]
    return [message for ok, message in checks if not ok]


def _cmd_mvs(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    x = _load_points(cfg)
    if cfg.local:
        res = mvs_local_search(x, seed=cfg.seed)
    else:
        res = mvs_exact(x, enum_cap=cfg.enum_cap)
    lm = verify_local_maximality(res.simplex, x, tol=cfg.check_tol)
    return {"mvs": res, "local_maximality": lm}, _violations(lm.ok)


def _cmd_dilation(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    x = _load_points(cfg)
    if cfg.simplex is None:
        raise InputFormatError("dilation needs --simplex FILE with d+1 vertices")
    t_pts = parse_points_file(cfg.simplex, cfg.fmt, cfg.mode)
    if t_pts.dim != x.dim or len(t_pts) != x.dim + 1:
        raise InputFormatError(
            f"--simplex must hold exactly {x.dim + 1} points of dimension {x.dim}"
        )
    t = make_simplex(t_pts.points)
    return {"dilation": min_dilation(t, x, DilationSign(cfg.sign))}, []


def _cmd_john(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    x = _load_points(cfg)
    report = john_positive_cover(x, enum_cap=cfg.enum_cap, seed=cfg.seed)
    return {"cover": report}, _violations(report.sandwich.ok, report)


def _counterexample_config(cfg: RunConfig) -> CounterexampleConfig:
    try:
        eps, delta = ("1/5" if v is None else v for v in (cfg.epsilon, cfg.delta))
        return CounterexampleConfig(Fraction(eps), Fraction(delta))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad epsilon/delta: {exc}") from exc


def _cmd_counterexample(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    rep = verify_counterexample(_counterexample_config(cfg))
    violations = []
    if rep.feasible:
        if not rep.all_exceed_two:
            violations.append("some triangle covers at dilation 2 or below")
        if not rep.mirror_symmetric:
            violations.append("mirror-symmetric triangles disagree")
        if not rep.implications_ok:
            violations.append("an analytic chord bound contradicts the LP")
    return {"counterexample": rep}, violations


def _parse_fraction_list(text: str, flag: str) -> List[Fraction]:
    try:
        vals = [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"{flag}: {exc}") from exc
    if not vals:
        raise InputFormatError(f"{flag}: empty list")
    return vals


def _cmd_sweep(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    if cfg.epsilons is None or cfg.deltas is None:
        raise InputFormatError("sweep needs --epsilons and --deltas")
    rows = sweep(
        _parse_fraction_list(cfg.epsilons, "--epsilons"),
        _parse_fraction_list(cfg.deltas, "--deltas"),
    )
    if cfg.csv is not None:
        with open(cfg.csv, "w", encoding="utf-8") as fh:
            fh.write(sweep_rows_to_csv(rows))
    return {"rows": rows, "csv_path": cfg.csv}, []


def _trial_worker(args: Tuple[str, int, int, int, str, int]) -> Dict[str, Any]:
    body, n, dim, seed, mode_value, enum_cap = args
    x = sample_body(body, n, dim, seed, ScalarMode(mode_value))
    rep = john_positive_cover(x, enum_cap=enum_cap, seed=seed)
    ok = not _violations(rep.sandwich.ok, rep)
    return {
        "seed": seed,
        "mvs_method": rep.mvs.method,
        "lambda_negative": scalar_to_str(rep.negative.lam),
        "lambda_positive": scalar_to_str(rep.positive.lam),
        "bounds_ok": rep.bounds_ok,
        "sandwich_ok": rep.sandwich.ok,
        "centered_containment_ok": rep.centered_containment_ok,
        "ok": ok,
    }


def _cmd_random_trials(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    if cfg.body is None or cfg.n is None or cfg.dim is None:
        raise InputFormatError("random-trials needs --sample, --n and --dim")
    if cfg.trials < 1:
        raise InputFormatError("--trials must be positive")
    if cfg.jobs < 1:
        raise InputFormatError("--jobs must be positive")
    workers = min(cfg.jobs, cfg.trials, os.cpu_count() or 1)
    work = [
        (cfg.body, cfg.n, cfg.dim, cfg.seed + i, cfg.mode.value, cfg.enum_cap)
        for i in range(cfg.trials)
    ]
    if workers > 1:
        # Imported here, so that the other commands do not pay for
        # importing the process pool and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_worker, work))
    else:
        results = [_trial_worker(w) for w in work]
    failures = [r["seed"] for r in results if not r["ok"]]
    violations = (
        [f"covering bounds failed on {len(failures)} trial(s): seeds {failures}"]
        if failures
        else []
    )
    summary = {
        "trials": cfg.trials,
        "ok_count": sum(1 for r in results if r["ok"]),
        "results": results,
    }
    return summary, violations


def _john_scene(cfg: RunConfig, x: PointSet):
    d = x.dim
    if cfg.local:
        m = mvs_local_search(x, seed=cfg.seed)
    else:
        m = max_volume_simplex(x, enum_cap=cfg.enum_cap, seed=cfg.seed)
    t = m.simplex
    return [
        (t, SimplexStyle(stroke="#d62728", label="T")),
        (dilate_about_center(t, d + 2), SimplexStyle(stroke="#1f77b4", label="T'")),
        (dilate_about_center(t, -d), SimplexStyle(stroke="#2ca02c", label="T~")),
    ]


def _cmd_render(cfg: RunConfig) -> Tuple[Dict[str, Any], List[str]]:
    if cfg.output is None:
        raise InputFormatError("render needs --output FILE.svg")
    if cfg.epsilon is not None or cfg.delta is not None:
        ccfg = _counterexample_config(cfg)
        x = build_points(ccfg)
        tri = make_simplex([x.points[0], x.points[3], x.points[4]], (0, 3, 4))
        simplices = [
            (tri, SimplexStyle(stroke="#d62728", label="ADE")),
            (
                dilate_about_center(tri, 2),
                SimplexStyle(stroke="#1f77b4", label="2 ADE"),
            ),
        ]
    else:
        x = _load_points(cfg)
        simplices = _john_scene(cfg, x)
    render_scene_2d(x, simplices, cfg.output)
    return {
        "svg_path": cfg.output,
        "points": len(x),
        "polygons": len(simplices),
    }, []


def run(cfg: RunConfig) -> Tuple[int, Dict[str, Any]]:
    """Execute one command; returns (exit code, JSON-ready report)."""
    t0 = time.perf_counter()
    envelope: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "config": {**vars(cfg), "mode": cfg.mode.value},
    }
    try:
        result, violations = _COMMANDS[cfg.command].handler(cfg)
    except (TheoremViolationError, LPInternalError) as exc:
        envelope["error"] = str(exc)
        envelope["error_kind"] = "theorem-violation"
        code = 2
    except (
        InputFormatError,
        DegeneratePointSetError,
        DegenerateSimplexError,
        DimensionMismatchError,
        EnumerationCapError,
        NumericalBreakdownError,
        OSError,
    ) as exc:
        envelope["error"] = str(exc)
        envelope["error_kind"] = "input-error"
        code = 1
    else:
        envelope["result"] = to_jsonable(result)
        envelope["violations"] = violations
        code = 2 if violations else 0
    envelope["timings"] = {"total_seconds": time.perf_counter() - t0}
    return code, envelope


class _UsageError(SystemExit):
    """A usage error: exit 1, keeping argparse's message for the report."""

    def __init__(self, message: str):
        super().__init__(1)
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; the report contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


# Each flag's add_argument keywords.  None has a default: a flag left out of
# argv stays out of the namespace, so RunConfig's default applies.
_FLAGS: Dict[str, Dict[str, Any]] = {
    "--mode": dict(choices=tuple(m.value for m in ScalarMode)),
    "--seed": dict(type=int),
    "--output": dict(help="also write the JSON report here (SVG path for render)"),
    "--input": dict(help="point file (CSV or JSON)"),
    "--format": dict(dest="fmt", choices=("auto", "csv", "json")),
    "--sample": dict(dest="body", choices=BODIES),
    "--n": dict(type=int), "--dim": dict(type=int),
    "--tol": dict(type=float, help="float-mode tolerance of the swap-local slab check"),
    "--enum-cap": dict(type=int),
    "--local": dict(action="store_true",
                    help="use swap local search instead of exact enumeration"),
    "--simplex": dict(required=True, help="file with the d+1 vertices"),
    "--sign": dict(choices=tuple(s.value for s in DilationSign)),
    "--epsilon": {}, "--delta": {},
    "--epsilons": dict(required=True, help="comma-separated rationals"),
    "--deltas": dict(required=True, help="comma-separated rationals"),
    "--csv": dict(help="write a CSV table here"),
    "--trials": dict(type=int), "--jobs": dict(type=int),
}

_POINTS = ("--input", "--format", "--sample", "--n", "--dim")


def _dest(flag: str) -> str:
    """The RunConfig field that ``flag`` sets."""
    return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))


class _Command(NamedTuple):
    handler: Callable[[RunConfig], Tuple[Dict[str, Any], List[str]]]
    help: str
    flags: Tuple[str, ...]
    # Keywords that replace or extend a flag's _FLAGS entry for this command.
    overrides: Dict[str, Dict[str, Any]] = {}


_COMMANDS: Dict[str, _Command] = {
    "mvs": _Command(_cmd_mvs, "maximum-volume simplex", (
        "--mode", "--seed", "--output", *_POINTS, "--tol", "--enum-cap", "--local")),
    "dilation": _Command(_cmd_dilation, "minimal covering dilation of a simplex", (
        "--mode", "--output", "--input", "--format", "--simplex", "--sign")),
    "john": _Command(_cmd_john, "full covering report for a point set", (
        "--mode", "--seed", "--output", *_POINTS, "--enum-cap")),
    "counterexample": _Command(
        _cmd_counterexample, "exact check of the five-point family",
        ("--output", "--epsilon", "--delta"),
        {"--epsilon": dict(default="1/5"), "--delta": dict(default="1/5")}),
    "sweep": _Command(_cmd_sweep, "grid scan of the five-point family", (
        "--output", "--epsilons", "--deltas", "--csv")),
    "random-trials": _Command(
        _cmd_random_trials, "batch covering checks on samples",
        ("--mode", "--seed", "--output", "--sample", "--n", "--dim", "--trials", "--jobs",
         "--enum-cap"),
        {flag: dict(required=True) for flag in ("--sample", "--n", "--dim")}),
    "render": _Command(
        _cmd_render, "SVG scene for a planar input",
        ("--mode", "--seed", "--output", *_POINTS, "--enum-cap", "--local", "--epsilon",
         "--delta"),
        {"--local": dict(help=None),
         "--epsilon": dict(help="render the five-point scene instead of --input")}),
}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="simplexcover",
        description="Maximum-volume simplices and simplex covering bounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for flag in command.flags:
            p.add_argument(flag, **{**_FLAGS[flag], **command.overrides.get(flag, {})})
    return top


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use rather than at import.

    argparse keeps no state between ``parse_args`` calls, so one parser
    serves every call; building it costs about 2 ms.
    """
    return build_parser()


def parse_argv(argv: Sequence[str]) -> RunConfig:
    parser = _shared_parser()
    ns = vars(parser.parse_args(list(argv)))
    if "mode" in ns:
        ns["mode"] = ScalarMode(ns["mode"])
    cfg = RunConfig(**ns)
    if cfg.tol is not None and not (math.isfinite(cfg.tol) and cfg.tol >= 0):
        parser.error(f"--tol must be finite and >= 0, got {cfg.tol}")
    if cfg.tol is not None and cfg.mode is ScalarMode.EXACT:
        parser.error("--tol applies to float mode only")
    if cfg.enum_cap < 0:
        parser.error(f"--enum-cap must be >= 0, got {cfg.enum_cap}")
    if cfg.input is not None and cfg.body is not None:
        parser.error("--input and --sample are mutually exclusive")
    # Of the commands that take --epsilon/--delta, only render takes these.
    ignored = [f for f in (*_POINTS, "--seed", "--local", "--mode", "--enum-cap")
               if _dest(f) in ns]
    if ignored and ("epsilon" in ns or "delta" in ns):
        parser.error(f"the five-point scene of --epsilon/--delta takes no {', '.join(ignored)}")
    # A flag that nothing reads is a usage error too, not ignored.  mvs
    # without --local never searches, while john and render search
    # whenever C(n, d+1) exceeds --enum-cap, so they read --seed.
    unread = {flag: why for flag, read, why in (
        ("--n", cfg.body, "--n and --dim need --sample"),
        ("--dim", cfg.body, "--n and --dim need --sample"),
        ("--format", cfg.input or cfg.simplex, "--format needs --input"),
        ("--enum-cap", not cfg.local, "--local enumerates no subsets"),
        ("--seed", cfg.local or cfg.body or cfg.command != "mvs",
         "mvs reads --seed only with --local or --sample"),
    ) if _dest(flag) in ns and not read}
    if unread:
        parser.error(f"{', '.join(unread)} would be ignored: "
                     + ", ".join(dict.fromkeys(unread.values())))
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = parse_argv(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:  # the usage text is already on stderr
        report = {"schema_version": SCHEMA_VERSION, "error": exc.message,
                  "error_kind": "input-error"}
        sys.stdout.write(dumps_report(report))
        return 1
    code, report = run(cfg)
    text = dumps_report(report)
    if cfg.output is not None and cfg.command != "render":
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # The report never reached its file: an input error, like an
            # unwritable render or sweep --csv path.
            for key in ("result", "violations"):
                report.pop(key, None)
            report.update(error=str(exc), error_kind="input-error")
            code, text = 1, dumps_report(report)
    sys.stdout.write(text)
    if "error" in report:
        print(f"simplexcover: {report['error']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
