"""File formats: point CSV/JSON ingestion, JSON reports, sweep CSV.

Scalar policy: exact rationals appear in JSON as "p/q" strings (plain "p"
when the denominator is 1), floats as decimal strings with 17 significant
digits, so both round-trip losslessly.  Python ints pass through as JSON
integers.

Report writer contract: ``dumps_report(r)`` returns the same bytes as
``json.dumps(to_jsonable(r), sort_keys=True, indent=2) + "\n"`` for every
tree ``to_jsonable`` makes of the package's results: keys sorted, two
spaces of indent per level, strings escaped to ASCII by
``encode_basestring_ascii``, and ``[]``/``{}`` for empty containers.  It
writes the text itself because ``indent`` makes ``json.dumps`` fall back to
its pure-Python encoder.
"""
from __future__ import annotations

import csv
import dataclasses
import enum
import io
import itertools
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .counterexample import TRIANGLE_LABELS, SweepRow
from .errors import InputFormatError
from .geometry import PointSet
from .scalars import Scalar, ScalarMode, float_batch, parse_scalar, scalar_to_str


# Field names of each dataclass type that ``to_jsonable`` has converted.
_DATACLASS_FIELDS: Dict[type, Tuple[str, ...]] = {}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert results (dataclasses, scalars, enums) to JSON types."""
    # The exact types that fill the package's reports first, because
    # isinstance against Fraction's abstract base class is slow; everything
    # else (dicts, numpy scalars, enums, subclasses) takes the chain below.
    cls = type(obj)
    if cls is str or cls is int or cls is bool or obj is None:
        return obj
    if cls is float or cls is Fraction:
        return scalar_to_str(obj)
    if cls is list or cls is tuple:
        return [to_jsonable(v) for v in obj]
    names = _DATACLASS_FIELDS.get(cls)
    if names is not None:
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, (float, Fraction)):
        return scalar_to_str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = tuple(f.name for f in dataclasses.fields(obj))
        _DATACLASS_FIELDS[cls] = names
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: Dict[str, Any]) -> str:
    """The report as indented JSON with sorted keys and a final newline."""
    out: List[str] = []
    _write_json(to_jsonable(report), "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj: Any, newline: str, out: List[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``.

    ``newline`` is a line break followed by the indent of the line on which
    ``obj`` starts.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_points_csv(text: str, mode: ScalarMode) -> PointSet:
    """One point per line, comma-separated; "p/q" and decimal entries accepted.

    Each field is read as ``parse_scalar`` reads it (which strips it), and
    the first error in file order is raised.  Lines are split on commas,
    except that a text holding a double quote or a NUL is read by
    ``csv.reader``: only those characters make its fields differ.
    """
    lines = text.splitlines()
    quoted = '"' in text or "\0" in text
    records = csv.reader(lines) if quoted else (line.split(",") for line in lines)
    rows: List[List[str]] = []
    linenos: List[int] = []
    dim, stop = None, None
    try:
        for lineno, fields in enumerate(records, start=1):
            if len(fields) < 2 and not "".join(fields).strip():
                continue  # a blank line
            if dim is None:
                dim = len(fields)
            elif len(fields) != dim:
                raise InputFormatError(
                    f"line {lineno}: expected {dim} coordinates, got {len(fields)}"
                )
            rows.append(fields)
            linenos.append(lineno)
    except (InputFormatError, csv.Error) as exc:
        stop = exc  # raised once the rows before it have parsed
    if rows:
        points = _parse_fields(rows, linenos, mode)
    if stop is not None:
        raise stop
    if not rows:
        raise InputFormatError("no points found")
    return PointSet(dim, points)


def _parse_fields(rows: List[List[str]], linenos: List[int], mode: ScalarMode):
    """The points of ``rows``, found on lines ``linenos``, each field as
    ``parse_scalar`` reads it; in float mode an (n, d) array.

    Float mode converts every field in one ``float_batch`` and gives
    ``parse_scalar`` only the fields whose value that leaves open, or every
    field if ``float`` rejects one.
    """
    dim = len(rows[0])
    fields = list(itertools.chain.from_iterable(rows))

    def parse(i: int) -> Scalar:
        try:
            return parse_scalar(fields[i], mode)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"line {linenos[i // dim]}: {exc}") from exc

    array = float_batch(fields) if mode is ScalarMode.FLOAT else None
    if array is not None:
        for i in np.flatnonzero(np.isnan(array)).tolist():
            array[i] = parse(i)
        return array.reshape(len(rows), dim)
    values = [parse(i) for i in range(len(fields))]
    return list(zip(*[iter(values)] * dim))


def parse_points_json(text: str, mode: ScalarMode) -> PointSet:
    """{"dim": d, "points": [[...], ...]}; entries may be numbers or strings."""
    try:
        data = json.loads(text, parse_float=str)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed text and an integer literal past the
        # interpreter's digit limit; RecursionError, arrays nested too deep.
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise InputFormatError('expected an object with "dim" and "points"')
    dim, points = data["dim"], data["points"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputFormatError('"dim" must be a positive integer')
    if not isinstance(points, list):
        raise InputFormatError('"points" must be a list of points')
    pts = []
    for i, row in enumerate(points):
        if not isinstance(row, list) or len(row) != dim:
            raise InputFormatError(f"point {i}: expected {dim} coordinates")
        coords = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise InputFormatError(f"point {i}: unsupported entry {v!r}")
            try:
                coords.append(parse_scalar(str(v), mode))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputFormatError(f"point {i}: {exc}") from exc
        pts.append(tuple(coords))
    if not pts:
        raise InputFormatError("no points found")
    return PointSet(dim, tuple(pts))


def parse_points_file(path: str, fmt: str, mode: ScalarMode) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if fmt == "json" or (fmt == "auto" and path.endswith(".json")):
        return parse_points_json(text, mode)
    return parse_points_csv(text, mode)


SWEEP_COLUMNS = (
    ["epsilon", "delta", "feasible"]
    + [f"lambda_{label}" for label in TRIANGLE_LABELS]
    + ["lambda_min"]
)


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for r in rows:
        w.writerow(
            [scalar_to_str(r.epsilon), scalar_to_str(r.delta),
             "true" if r.feasible else "false"]
            + [scalar_to_str(r.lambdas[label]) for label in TRIANGLE_LABELS]
            + [scalar_to_str(r.lambda_min)]
        )
    return buf.getvalue()
