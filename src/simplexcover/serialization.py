"""File formats: point CSV/JSON ingestion, JSON reports, sweep CSV.

Scalar policy: exact rationals appear in JSON as "p/q" strings (plain "p"
when the denominator is 1), floats as decimal strings with 17 significant
digits, so both round-trip losslessly.  Python ints pass through as JSON
integers.

Point files: CSV lines and JSON rows share one field parser and float
mode's one ``float_batch``.  Files are read as ``utf-8-sig`` (a leading
byte-order mark is dropped); a quoted CSV field may span lines.

Report conversion: ``to_jsonable`` looks up the converter of each object's
exact type in one table; ``_converter`` fills a type's entry the first time
it is seen, by ``isinstance`` rules in a fixed order.

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
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .counterexample import TRIANGLE_LABELS, SweepRow
from .errors import InputFormatError
from .geometry import PointSet
from .scalars import Scalar, ScalarMode, float_batch, parse_scalar, scalar_to_str


# The converter of each type that ``to_jsonable`` has seen.
_CONVERTERS: Dict[type, Callable[[Any], Any]] = {}


def to_jsonable(obj: Any) -> Any:
    """Recursively convert results (dataclasses, scalars, enums) to JSON types."""
    cls = type(obj)
    convert = _CONVERTERS.get(cls) or _CONVERTERS.setdefault(cls, _converter(cls))
    return convert(obj)


def _converter(cls: type) -> Callable[[Any], Any]:
    """How ``to_jsonable`` converts an instance of ``cls``: by the first
    rule that holds, so an IntEnum stays an int; a TypeError if none does."""
    if cls is type(None) or issubclass(cls, (bool, str, int)):
        return lambda obj: obj
    if issubclass(cls, (float, Fraction)):
        return scalar_to_str
    if issubclass(cls, enum.Enum):
        return lambda obj: obj.value
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        names = tuple(f.name for f in dataclasses.fields(cls))
        return lambda obj: {name: to_jsonable(getattr(obj, name)) for name in names}
    if issubclass(cls, dict):
        return lambda obj: {str(k): to_jsonable(v) for k, v in obj.items()}
    if issubclass(cls, (list, tuple)):
        return lambda obj: [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {cls.__name__}")


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

    Lines are split on commas, except that a text holding a double quote or
    a NUL is read by ``csv.reader`` (line ends included, so a quoted field
    keeps its line breaks): only those characters make its fields differ."""
    quoted = '"' in text or "\0" in text
    lines = text.splitlines(keepends=quoted)
    records = csv.reader(lines) if quoted else (line.split(",") for line in lines)
    rows: List[List[str]] = []
    linenos: List[int] = []
    dim, stop, next_line = None, None, 1
    try:
        for fields in records:
            # A record starts on the line after the previous one ended.
            lineno, next_line = next_line, (records.line_num if quoted else next_line) + 1
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
    except InputFormatError as exc:
        stop = exc  # raised once the rows before it have parsed
    except csv.Error as exc:  # only csv.reader raises it
        stop = InputFormatError(f"line {records.line_num}: {exc}")
    return _point_set(rows, dim, lambda k: f"line {linenos[k]}", stop, mode)


def _point_set(rows: List[List[str]], dim: Optional[int], name: Callable[[int], str],
               stop: Optional[InputFormatError], mode: ScalarMode) -> PointSet:
    """The points of ``rows`` of ``dim`` fields, each as ``parse_scalar``
    reads it.  Raised in order: the first field that does not parse, after
    ``name(k)`` of its row k; then ``stop``, the error that ended the rows
    (the last row may then be short); then "no points found".  Float mode
    converts every field in one ``float_batch`` and gives ``parse_scalar``
    only the fields whose value that leaves open, or all if ``float``
    rejects one."""
    fields = list(itertools.chain.from_iterable(rows))
    if not fields:
        raise stop or InputFormatError("no points found")

    def parse(i: int) -> Scalar:
        try:
            return parse_scalar(fields[i], mode)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"{name(i // dim)}: {exc}") from exc

    array = float_batch(fields) if mode is ScalarMode.FLOAT else None
    if array is not None:
        for i in np.flatnonzero(np.isnan(array)).tolist():
            array[i] = parse(i)
    else:
        values = [parse(i) for i in range(len(fields))]
    if stop is not None:
        raise stop
    if array is not None:
        return PointSet(dim, array.reshape(len(rows), dim))
    return PointSet(dim, list(zip(*[iter(values)] * dim)))


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
    rows, stop = [], None
    for i, row in enumerate(points):
        if not isinstance(row, list) or len(row) != dim:
            stop = InputFormatError(f"point {i}: expected {dim} coordinates")
            break
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                stop = InputFormatError(f"point {i}: unsupported entry {v!r}")
                row = row[:j]  # a short last row, parsed before ``stop``
                break
        rows.append(list(map(str, row)))
        if stop is not None:
            break
    return _point_set(rows, dim, "point {}".format, stop, mode)


def parse_points_file(path: str, fmt: str, mode: ScalarMode) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
