import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import fraction_parse_scalar
from simplexcover import scalars
from simplexcover.scalars import (
    DEFAULT_FLOAT_TOL,
    ScalarMode,
    default_tol,
    infer_mode,
    is_exact_value,
    parse_scalar,
    scalar_to_str,
)


def test_default_tol():
    assert default_tol(ScalarMode.EXACT) == 0
    assert default_tol(ScalarMode.FLOAT) == DEFAULT_FLOAT_TOL


def test_infer_mode():
    assert infer_mode([1, Fraction(1, 3)]) is ScalarMode.EXACT
    assert infer_mode([1, 0.5]) is ScalarMode.FLOAT
    assert infer_mode([]) is ScalarMode.EXACT


def test_is_exact_value():
    assert is_exact_value(3)
    assert is_exact_value(Fraction(-2, 7))
    assert not is_exact_value(0.25)


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/3", Fraction(1, 3)),
        ("-7/2", Fraction(-7, 2)),
        ("0.125", Fraction(1, 8)),
        ("2", Fraction(2)),
        ("1e-3", Fraction(1, 1000)),
    ],
)
def test_parse_scalar_exact(text, value):
    got = parse_scalar(text, ScalarMode.EXACT)
    assert got == value and isinstance(got, Fraction)


def test_parse_scalar_float():
    assert parse_scalar("1/4", ScalarMode.FLOAT) == 0.25
    assert parse_scalar("0.1", ScalarMode.FLOAT) == 0.1


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("12..5", ScalarMode.EXACT)
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_scalar("1/0", ScalarMode.EXACT)


def _float_parse_outcome(parse, text):
    """The value with the sign of zero, or the exception type and message."""
    try:
        x = parse(text, ScalarMode.FLOAT)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)
    return type(x), x, math.copysign(1.0, x)


_DECIMAL_TEXTS = st.builds(
    lambda pad, sign, whole, dot, frac, exp: pad + sign + whole + dot + frac + exp + pad,
    st.sampled_from(["", " "]),
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", max_size=40),
    st.sampled_from(["", "."]),
    st.text("0123456789", max_size=40),
    st.one_of(
        st.just(""),
        st.builds(
            lambda e, sign, k: f"{e}{sign}{k}",
            st.sampled_from("eE"),
            st.sampled_from(["", "+", "-"]),
            st.integers(0, 450),
        ),
    ),
)


@given(_DECIMAL_TEXTS)
def test_float_parse_matches_fraction_oracle(text):
    assert _float_parse_outcome(parse_scalar, text) == _float_parse_outcome(
        fraction_parse_scalar, text
    )


@pytest.mark.parametrize(
    "text",
    ["-0.0", "-0", "-1e-400", "1e400", "-1e400", "nan", "inf", "-Infinity",
     "1_000.5", "\u0661\u0662", "0." + "1" * 5000, "1/3", "0x10", "12..5", "",
     "1e-5000", "-0e99", "-0.0001e-400", "+0E5"],
)
def test_float_parse_edge_cases_match_fraction_oracle(text):
    assert _float_parse_outcome(parse_scalar, text) == _float_parse_outcome(
        fraction_parse_scalar, text
    )


@pytest.mark.parametrize(
    "text, value",
    [("1e-3000000", 0.0), ("-1e-3000000", -0.0), ("1e3000000", math.inf),
     ("-1e3000000", -math.inf), ("-0e-3000000", 0.0)],
)
def test_float_parse_of_a_huge_exponent_builds_no_power_of_ten(monkeypatch, text, value):
    # Fraction(text) would build 10**3000000; float mode must not need it.
    def no_fraction(*args):
        raise AssertionError("Fraction called")

    monkeypatch.setattr(scalars, "Fraction", no_fraction)
    x = parse_scalar(text, ScalarMode.FLOAT)
    assert (x, math.copysign(1.0, x)) == (value, math.copysign(1.0, value))


@pytest.mark.parametrize(
    "text",
    ["0." + "2" * 1000, "1" * 4300 + ".5", "0." + "0" * 4301 + "1e5", "1e" + "1" * 5000],
    ids=["1000-digit-fraction", "4300-digit-integer-part", "4302-digit-fraction",
         "5000-digit-exponent"],
)
def test_long_float_texts_match_fraction_oracle(text):
    # Past _FLOAT_FAST_MAX_LEN: a text whose digit runs are within the
    # interpreter's limit reads as float does, the others keep Fraction's error.
    assert _float_parse_outcome(parse_scalar, text) == _float_parse_outcome(
        fraction_parse_scalar, text
    )


# Longer than _FLOAT_FAST_MAX_LEN, with every digit run within the
# interpreter's limit on integer string conversion.
LONG_HUGE_EXPONENTS = [("0." + "0" * 700 + "1e-3000000", 0.0), ("1" * 700 + "e3000000", math.inf)]


@pytest.mark.parametrize("text, value", LONG_HUGE_EXPONENTS, ids=["underflow", "overflow"])
def test_long_float_text_with_a_huge_exponent_is_fast(monkeypatch, text, value):
    def no_fraction(*args):
        raise AssertionError("Fraction called")

    monkeypatch.setattr(scalars, "Fraction", no_fraction)
    start = time.perf_counter()
    x = parse_scalar(text, ScalarMode.FLOAT)
    assert time.perf_counter() - start < 0.05
    assert (x, math.copysign(1.0, x)) == (value, 1.0)


def test_scalar_to_str_forms():
    assert scalar_to_str(Fraction(1, 3)) == "1/3"
    assert scalar_to_str(Fraction(4, 2)) == "2"
    assert scalar_to_str(7) == "7"
    # 17 significant digits round-trip any double
    assert float(scalar_to_str(0.1)) == 0.1


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_serialization_round_trips(x):
    assert float(scalar_to_str(x)) == x


@given(st.fractions())
def test_fraction_serialization_round_trips(q):
    assert Fraction(scalar_to_str(q)) == q
