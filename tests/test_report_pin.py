"""Byte-level pins of whole CLI reports.

Each ``CONTRACT`` row that carries a ``digest`` runs
``cli.run(parse_argv(argv))`` in a fresh directory that holds the row's
files, drops the ``timings`` block and compares the sha256 of the
serialized report with the row's digest.  Together the rows reach every
enumeration path of ``mvs_exact`` up to d = 7 (the float64 walk, both
without and with its rounding filter, on exact and on float input), local
search in both modes, both dilation signs, a float dilation, the
counterexample on both sides of feasibility, the sweep, random trials, an
input-error report from exact enumeration, local search's spanning error in
dimensions 2 and 1, a dilation whose simplex has a denominator the points
lack, and an exact local search over many distinct denominators.  A
refactor that is meant to keep answers unchanged must keep every hash.

Floats are summed left to right (``scalars.total``), never by builtin
``sum``, which Python 3.12 made compensated; so the float reports are the
same on every supported Python, and every pin also holds with builtin
``sum`` replaced by the compensated one.

The reports are in schema 2.  ``helpers.report_v1`` maps each one back to
schema 1, and the result must hash to the row's ``digest_v1``, recorded
before schema 2 existed: the schema changed, the answers did not.
"""
import builtins
import hashlib
import math

import pytest

from cli_cases import CONTRACT, setup
from helpers import report_v1
from simplexcover.cli import _load_points, parse_argv, run
from simplexcover.serialization import dumps_report

PINNED = [row for row in CONTRACT.values() if row.digest is not None]

# Keys that schema 2 removed; "slab" is removed only beside "facet_slacks",
# in the sandwich report, and stays in the local-maximality report.
REMOVED_KEYS = {"dual", "status", "certificate_ok", "certificates_ok"}

_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 made it: from the first float on, it
    adds ints and floats with Neumaier's compensation, which can differ
    from left-to-right addition in the last bits."""
    items = list(iterable)
    kinds = {type(v) for v in items} | {type(start)}
    first = next((i for i, v in enumerate(items) if type(v) is float), None)
    if first is None or not kinds <= {int, float}:
        return _SUM(items, start)
    total, c = float(_SUM(items[:first], start)), 0.0
    for x in map(float, items[first:]):
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def _report(row, cwd, monkeypatch):
    """(exit code, report without timings, points each dilation covers)."""
    argv = setup(row, cwd)
    monkeypatch.chdir(cwd)
    cfg = parse_argv(argv)
    code, report = run(cfg)
    del report["timings"]
    n = 0  # the report holds no dilation
    if cfg.command == "counterexample":
        n = 5
    elif cfg.command in ("john", "dilation") and "result" in report:
        n = len(_load_points(cfg))
    return code, report, n


def _digest(report) -> str:
    return hashlib.sha256(dumps_report(report).encode("utf-8")).hexdigest()


def _assert_pinned(row, cwd, monkeypatch):
    code, report, n = _report(row, cwd, monkeypatch)
    assert (code, _digest(report)) == (row.code, row.digest)
    assert report["schema_version"] == 2
    assert _digest(report_v1(report, n)) == row.digest_v1


@pytest.mark.parametrize("row", PINNED, ids=[row.argv for row in PINNED])
def test_report_is_pinned(tmp_path, monkeypatch, row):
    _assert_pinned(row, tmp_path / "run", monkeypatch)


@pytest.mark.parametrize("row", PINNED, ids=[row.argv for row in PINNED])
def test_report_holds_under_compensated_sum(tmp_path, monkeypatch, row):
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    _assert_pinned(row, tmp_path / "run", monkeypatch)


def test_compensated_sum_is_python_3_12s():
    assert _compensated_sum([0.1] * 10) == 1.0  # 0.9999999999999999 left to right
    assert _compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert _compensated_sum([-0.0]) == 0.0 and _compensated_sum([3, 4]) == 7
    assert _compensated_sum([1e308, 1e308]) == math.inf


def _keys(obj):
    """Every (key, sibling keys) pair in a JSON tree."""
    if isinstance(obj, list):
        for v in obj:
            yield from _keys(v)
    elif isinstance(obj, dict):
        for key, v in obj.items():
            yield key, set(obj)
            yield from _keys(v)


def test_reports_hold_no_removed_field(tmp_path, monkeypatch):
    one_per_command = {}
    for row in PINNED:
        if row.code == 0:
            one_per_command.setdefault(row.argv.split()[0], row)
    one_per_command["render"] = CONTRACT["render-local"]
    assert len(one_per_command) == 7
    bindings = 0
    for command, row in one_per_command.items():
        code, report, _ = _report(row, tmp_path / command, monkeypatch)
        assert code == 0
        for key, siblings in _keys(report):
            assert key not in REMOVED_KEYS, row.argv
            assert not (key == "slab" and "facet_slacks" in siblings), row.argv
            bindings += key == "binding"
    # john's two dilations, dilation's one and the counterexample's ten
    assert bindings == 13
