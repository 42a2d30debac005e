"""Point file parsing and JSON/CSV emission."""
import csv
import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import json_oracle, reference_parse_points_csv
from simplexcover import (
    InputFormatError,
    PointSet,
    ScalarMode,
    parse_points_csv,
    parse_points_file,
    parse_points_json,
    sweep,
)
from simplexcover.scalars import scalar_to_str
from simplexcover.serialization import (
    SWEEP_COLUMNS,
    dumps_report,
    sweep_rows_to_csv,
    to_jsonable,
)

F = Fraction


# ---------------------------------------------------------------------------
# to_jsonable / dumps_report
# ---------------------------------------------------------------------------

class Color(enum.Enum):
    RED = "red"


@dataclass
class Inner:
    a: Fraction
    b: float


def test_to_jsonable_scalar_policy():
    assert to_jsonable(None) is None
    assert to_jsonable(True) is True
    assert to_jsonable(7) == 7
    assert to_jsonable("x") == "x"
    assert to_jsonable(F(3, 4)) == "3/4"
    assert to_jsonable(F(5, 1)) == "5"
    assert to_jsonable(0.5) == "0.5"
    assert to_jsonable(Color.RED) == "red"
    assert to_jsonable((1, [F(1, 2)])) == [1, ["1/2"]]
    assert to_jsonable({"k": Inner(F(1, 3), 1.0)}) == {"k": {"a": "1/3", "b": "1"}}
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_dumps_report_is_deterministic():
    a = dumps_report({"b": F(1, 2), "a": [1.25, 3]})
    b = dumps_report({"a": [1.25, 3], "b": F(1, 2)})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": ["1.25", 3], "b": "1/2"}


class Rank(enum.IntEnum):
    FIRST = 1


@dataclass
class Pair:
    left: Any
    right: Any


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64),
    st.fractions(),
    st.floats(),
    st.just(-0.0),
    st.just(5e-324),
    st.floats(allow_nan=False).map(np.float64),
    st.sampled_from([Color.RED, Rank.FIRST]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
    st.just([]),
    st.just({}),
    st.just([[], {}, [[]]]),
)

_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
        st.builds(Pair, children, children),
    ),
    max_leaves=25,
)


@given(_TREES)
def test_dumps_report_matches_json_oracle(tree):
    assert dumps_report(tree) == json_oracle(tree)


# ---------------------------------------------------------------------------
# CSV points
# ---------------------------------------------------------------------------

def test_csv_round_trip_exact():
    x = parse_points_csv("1/3,-2\n0,7/5\n", ScalarMode.EXACT)
    assert x.points == ((F(1, 3), F(-2)), (F(0), F(7, 5)))
    assert [[scalar_to_str(c) for c in p] for p in x.points] == [["1/3", "-2"], ["0", "7/5"]]


def test_csv_blank_lines_and_whitespace():
    x = parse_points_csv("\n 1 , 2 \n\n3,4\n", ScalarMode.EXACT)
    assert x.points == ((F(1), F(2)), (F(3), F(4)))


def test_csv_ragged_row_reports_line_number():
    with pytest.raises(InputFormatError, match="line 3"):
        parse_points_csv("1,2\n3,4\n5\n", ScalarMode.EXACT)


def test_csv_bad_entry_reports_line_number():
    with pytest.raises(InputFormatError, match="line 2"):
        parse_points_csv("1,2\nfoo,4\n", ScalarMode.EXACT)


def test_csv_empty_is_an_error():
    with pytest.raises(InputFormatError, match="no points"):
        parse_points_csv("\n\n", ScalarMode.FLOAT)


def test_csv_float_mode():
    x = parse_points_csv("0.5,1/4\n", ScalarMode.FLOAT)
    assert x.points == ((0.5, 0.25),)
    assert all(isinstance(c, float) for c in x.points[0])


# Fields the batched float reader must hand to parse_scalar, and plain ones.
_ODD_FIELDS = [
    "-0.0", "0e5", "-1e-400", "1e400", "-1e999", "nan", "inf", "-Infinity",
    "1_0", "1/3", "-7/2", "2/0", "", " ", "abc", "1,5", "0x10", "\0",
    "\u0661\u0662", "\uff11.5", "\u00a02", " 0.5 ", "\t-2", "\x1f3",
    "1" * 700, "0." + "3" * 700, "9" * 5000, "0." + "3" * 5000,
]
_FIELD = st.one_of(
    st.sampled_from(_ODD_FIELDS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)


@st.composite
def _csv_texts(draw):
    dim = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t "])))
            continue
        width = dim if kind == "row" else draw(st.integers(1, 4))
        fields = [draw(_FIELD) for _ in range(width)]
        fields = [f'"{f}"' if draw(st.integers(0, 9)) == 0 else f for f in fields]
        lines.append(",".join(fields))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r", "\f"])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _read(parse, text, mode):
    """The points, each float by its hex form (so -0.0 counts), or the error."""
    try:
        points = parse(text, mode)
    except (InputFormatError, csv.Error) as exc:
        return type(exc), str(exc)
    return [[v.hex() if isinstance(v, float) else (type(v), v) for v in p] for p in points]


@settings(deadline=None, max_examples=300)
@given(_csv_texts(), st.sampled_from(list(ScalarMode)))
@example("0." + "3" * 5000 + ",1\n", ScalarMode.FLOAT)  # float reads it, Fraction rejects it
@example("-0.0,1\r\n\n-1e-400,2\f0e5,1e400\n", ScalarMode.FLOAT)
@example('"1.5",2\n3,nan\n1_0,\u0661\u0662\n', ScalarMode.FLOAT)
def test_csv_reader_matches_field_by_field_parse(text, mode):
    assert _read(lambda t, m: parse_points_csv(t, m).points, text, mode) == _read(
        reference_parse_points_csv, text, mode
    )


# ---------------------------------------------------------------------------
# JSON points
# ---------------------------------------------------------------------------

def test_json_round_trip_exact():
    x = PointSet(3, ((F(1, 3), F(0), F(-5, 2)),))
    back = parse_points_json(dumps_report({"dim": 3, "points": x.points}), ScalarMode.EXACT)
    assert back.dim == 3 and back.points == x.points


def test_json_accepts_numbers_and_strings():
    text = '{"dim": 2, "points": [[1, "1/2"], ["0.25", 3]]}'
    exact = parse_points_json(text, ScalarMode.EXACT)
    assert exact.points == ((F(1), F(1, 2)), (F(1, 4), F(3)))
    approx = parse_points_json(text, ScalarMode.FLOAT)
    assert approx.points == ((1.0, 0.5), (0.25, 3.0))


def test_json_float_literals_survive_exact_mode():
    # parse_float=str keeps the literal, so 0.1 arrives as Fraction(1, 10)
    x = parse_points_json('{"dim": 1, "points": [[0.1]]}', ScalarMode.EXACT)
    assert x.points == ((F(1, 10),),)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("[1,2]", '"dim" and "points"'),
        ('{"dim": 0, "points": []}', "positive integer"),
        ('{"dim": true, "points": [[0], [1], [2]]}', "positive integer"),
        ('{"dim": 2, "points": 5}', '"points" must be a list'),
        ('{"dim": 2, "points": null}', '"points" must be a list'),
        ('{"dim": 2, "points": [[1]]}', "point 0"),
        ('{"dim": 1, "points": [[true]]}', "unsupported entry"),
        ('{"dim": 1, "points": [["x"]]}', "point 0"),
        ('{"dim": 1, "points": []}', "no points"),
        ("{nope", "invalid JSON"),
    ],
)
def test_json_rejections(text, msg):
    with pytest.raises(InputFormatError, match=msg):
        parse_points_json(text, ScalarMode.EXACT)


def test_parse_points_file_sniffs_json(tmp_path):
    j = tmp_path / "pts.json"
    j.write_text('{"dim": 1, "points": [[1], [2]]}', encoding="utf-8")
    c = tmp_path / "pts.csv"
    c.write_text("1\n2\n", encoding="utf-8")
    for path in (j, c):
        x = parse_points_file(str(path), "auto", ScalarMode.EXACT)
        assert x.points == ((F(1),), (F(2),))
    # explicit format wins over the extension
    x = parse_points_file(str(c), "csv", ScalarMode.EXACT)
    assert x.points == ((F(1),), (F(2),))


def test_parse_points_file_missing(tmp_path):
    with pytest.raises(InputFormatError, match="cannot read"):
        parse_points_file(str(tmp_path / "absent.csv"), "auto", ScalarMode.EXACT)


# ---------------------------------------------------------------------------
# sweep CSV
# ---------------------------------------------------------------------------

def test_sweep_columns_frozen():
    assert SWEEP_COLUMNS == [
        "epsilon", "delta", "feasible",
        "lambda_CDE", "lambda_ABE", "lambda_ACD", "lambda_BCD", "lambda_ABC",
        "lambda_ABD", "lambda_ACE", "lambda_BDE", "lambda_ADE", "lambda_BCE",
        "lambda_min",
    ]


def test_sweep_csv_body():
    rows = sweep([F(1, 5)], [F(1, 5)])
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "1/5" and cells[1] == "1/5" and cells[2] == "true"
    assert cells[-1] == "110/53"
    assert cells[3] == "55/18"  # lambda_CDE
    assert len(cells) == len(SWEEP_COLUMNS)
