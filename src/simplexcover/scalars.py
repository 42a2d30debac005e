"""Scalar modes and conversions.

Every geometric routine in this package runs in one of two arithmetic modes,
and the scalar family of the input chooses the mode (``infer_mode``):

* EXACT: coordinates are ``fractions.Fraction`` (or int) and every comparison
  is exact.  Nothing is ever rounded.
* FLOAT: coordinates are binary doubles, and the runtime's float checks
  read the three tolerances named below.

Mixed expressions stay honest because ``Fraction`` arithmetic promotes to
float only when a float operand is present, so exact constants such as
``Fraction(d + 2, d)`` can be used in code shared by both modes.
"""
from __future__ import annotations

import enum
import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InputFormatError

Scalar = Union[int, float, Fraction]

# Slack of float slab, containment and bound checks (``default_tol``).
DEFAULT_FLOAT_TOL = 1e-9
# Residual of a float dual certificate: honest ones near 1e-12, broken near 1e+2.
FLOAT_CERTIFICATE_TOL = 1e-6
# Float local search swaps only for a relative volume gain above rounding's.
FLOAT_SWAP_MARGIN = 1e-12

# Every nonzero limit that ``sys.set_int_max_str_digits`` accepts is at least
# 640 digits, so ``Fraction`` never rejects a text this short for its length.
_FLOAT_FAST_MAX_LEN = 640

_DIGIT_RUN = re.compile(r"[0-9]+")


def _within_int_str_limit(text: str) -> bool:
    """True when no run of digits in ``text`` exceeds the interpreter's limit
    on integer string conversion.  ``Fraction`` converts each of its digit
    groups (integer part, fraction part, exponent, denominator) with ``int``,
    and each group lies inside one run, so it cannot reject such a text for
    its length."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or all(len(run) <= limit for run in _DIGIT_RUN.findall(text))


class ScalarMode(enum.Enum):
    """Arithmetic regime for a computation."""

    FLOAT = "float"
    EXACT = "exact"


def default_tol(mode: ScalarMode) -> Scalar:
    """Zero in exact mode, the package-wide float tolerance otherwise."""
    return 0 if mode is ScalarMode.EXACT else DEFAULT_FLOAT_TOL


def is_exact_value(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def infer_mode(values: Iterable[Scalar]) -> ScalarMode:
    """EXACT when every value is an int or Fraction, FLOAT otherwise.

    Decided from the set of distinct value types, which ``map`` collects
    without a Python-level loop over the values."""
    exact = all(
        issubclass(t, (int, Fraction)) and not issubclass(t, bool)
        for t in set(map(type, values))
    )
    return ScalarMode.EXACT if exact else ScalarMode.FLOAT


def parse_scalar(text: str, mode: ScalarMode) -> Scalar:
    """Parse 'p/q', integer, or decimal notation in the requested mode.

    A text with an underscore ('1_0') is an input error in both modes, with
    the message ``Fraction`` gives on Python 3.10, although ``float`` reads
    digit separators and ``Fraction`` does too from Python 3.11 on.

    Exact mode returns ``Fraction(text)``, which builds 10**|exponent|, so
    '1e-3000000' is slow to read exactly.  In float mode a decimal or
    integer text goes straight to ``float``, which rounds correctly and so
    gives the double nearest to the exact value, as ``float(Fraction(text))``
    does.  Where ``float`` reads zero or infinity, the result is decided
    from that reading and the text, with the value of parsing exactly and
    rounding once:

    * a zero mantissa ('-0.0', '-0e99') gives 0.0, as ``Fraction`` does;
    * a nonzero value that underflows keeps ``float``'s signed zero;
    * a decimal past the float range keeps ``float``'s +/-inf.

    These float-mode texts take the ``Fraction`` path instead, so that each
    keeps the value or error of parsing exactly:

    * 'p/q' and any other text ``float`` rejects;
    * the words 'nan', 'inf' and 'infinity', which are input errors;
    * text with a non-ASCII character;
    * text with a run of digits past the interpreter's limit on integer
      string conversion, which ``Fraction`` rejects.  Only texts longer than
      ``_FLOAT_FAST_MAX_LEN`` are scanned for one; the scan builds no number.
    """
    text = text.strip()
    if "_" in text:
        raise InputFormatError(
            f"cannot parse scalar {text!r}: Invalid literal for Fraction: {text!r}")
    if (
        mode is ScalarMode.FLOAT
        and text.isascii()
        and (len(text) <= _FLOAT_FAST_MAX_LEN or _within_int_str_limit(text))
    ):
        try:
            x = float(text)
        except ValueError:
            pass
        else:
            if not x:
                mantissa = text.lower().partition("e")[0]
                return x if mantissa.strip("+-.0") else 0.0
            # Every non-finite word that float reads contains an "n".
            if math.isfinite(x) or "n" not in text.lower():
                return x
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"cannot parse scalar {text!r}: {exc}") from None
    if mode is ScalarMode.EXACT:
        return value
    try:
        return float(value)
    except OverflowError:
        # Past the float range the nearest double is infinite; PointSet
        # rejects non-finite coordinates with an input error.
        return math.inf if value > 0 else -math.inf


def float_batch(texts: Sequence[str]) -> Optional[np.ndarray]:
    """``float`` of every text as one float64 array, NaN where float-mode
    ``parse_scalar`` may read the text otherwise, or None if ``float``
    rejects a text.

    The NaN entries are the texts ``float`` reads as zero or non-finite and
    those with an underscore, a non-ASCII character or more than
    ``_FLOAT_FAST_MAX_LEN`` characters.  On every other text
    ``parse_scalar`` returns ``float(text)``.
    """
    try:
        values = np.array(list(map(float, texts)))
    except ValueError:
        return None
    values[~np.isfinite(values) | (values == 0)] = np.nan
    joined = "".join(texts)
    if "_" in joined or not joined.isascii() or max(map(len, texts)) > _FLOAT_FAST_MAX_LEN:
        odd = [len(t) > _FLOAT_FAST_MAX_LEN or "_" in t or not t.isascii() for t in texts]
        values[odd] = np.nan
    return values


def scalar_to_str(x: Scalar) -> str:
    """Lossless text form: 'p/q' for rationals, 17 significant digits for floats."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    # The float test goes first because isinstance against Fraction's
    # abstract base class is slow, and reports hold thousands of floats.
    if not isinstance(x, float) and isinstance(x, (int, Fraction)):
        return str(x)
    return format(float(x), ".17g")
