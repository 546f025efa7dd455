"""Scalar arithmetic for the max-plus semiring.

Values are plain Python numbers (int, float, Fraction); the float
infinities -inf and +inf complete the semiring, and are compared with ==.
Semiring addition is max, multiplication is ordinary +, the additive
neutral is -inf and the multiplicative neutral is 0.  Keeping integers
as Python ints means every finite-state computation downstream is exact;
floats only enter through file input or the continuous module.

Inputs (kernel entries, function values, measure weights) are finite or
-inf: +inf is refused wherever one is read, and only ever appears as a
result, such as the excess of a path that no slack makes optimal.
"""

from __future__ import annotations

import math
import numbers
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

NEG_INF = -math.inf
POS_INF = math.inf

Value = Union[int, float, Fraction]

# Absolute floor of every float comparison; kernels add a relative term.
TOL = 1e-9


def is_finite(a: Value) -> bool:
    """False on a float infinity only; an int past the float range is finite."""
    return not (isinstance(a, float) and math.isinf(a))


def oplus(a: Value, b: Value) -> Value:
    """Semiring sum: the maximum under the extended total order."""
    return b if a < b else a


def coerce_value(v) -> Value:
    """Normalize a raw number into the completed semiring.

    Numpy scalars become plain Python numbers, so an entry has the same
    type wherever it came from.  Booleans and NaN are rejected.
    """
    kind = type(v)
    if kind is int or kind is Fraction:
        return v
    if kind is float and v == v:
        return v
    if isinstance(v, bool):
        raise ValueError(f"not a max-plus value: {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, numbers.Real):
        f = float(v)
        if math.isnan(f):
            raise ValueError("NaN is not a max-plus value")
        return f
    raise ValueError(f"not a max-plus value: {v!r}")


def parse_value(token) -> Value:
    """Parse a scalar from file input.

    Accepts numbers as-is (ints stay ints, bit exact), and the strings
    "-inf" / "+inf" (case insensitive, bare "inf" allowed) plus decimal
    literals, all of which float() reads.
    """
    if not isinstance(token, str):
        return coerce_value(token)
    text = token.strip().lower()
    if "." not in text and "e" not in text and "n" not in text:
        try:  # no int literal, and no infinity, holds a ".", "e" or "n"
            return int(text)
        except ValueError:
            pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"not a max-plus value: {token!r}") from None


def format_value(v: Value) -> str:
    """Render a scalar for text output with 12 significant digits.

    Integers round trip bit exactly; integral floats below 1e15 print as
    integers, and float infinities and NaN as the tokens inf, -inf, nan.
    A Fraction outside the normal float range prints as f"{v:.12g}" would, its
    digits found without a float; float() reads it back as inf, 0 or a subnormal.
    """
    if isinstance(v, float):
        if v != v:
            return "nan"
        if math.isinf(v):
            return "-inf" if v < 0 else "inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.12g}"
    if isinstance(v, Fraction) and v.denominator != 1:
        try:
            f = float(v)
        except OverflowError:  # past the float range: the exact path, as below it
            f = 0.0
        if abs(f) >= sys.float_info.min:
            return format_value(f)
        with localcontext(prec=12):  # one exact division, rounded half to even
            return f"{(Decimal(v.numerator) / v.denominator).normalize():e}"
    return str(v)
