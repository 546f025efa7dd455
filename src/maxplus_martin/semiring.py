"""Scalar arithmetic for the max-plus semiring.

Values are plain Python numbers (int, float, Fraction) extended with two
tagged infinities.  Semiring addition is max, multiplication is ordinary +,
the additive neutral is -inf and the multiplicative neutral is 0.  Keeping
integers as Python ints means every finite-state computation downstream is
exact; floats only enter through file input or the continuous module.

The +inf element belongs to the completed semiring.  It never appears in
kernel data, but the product rule must still make -inf absorbing, so
(-inf) * (+inf) = -inf.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Union


class _Infinite:
    """Tagged infinity, totally ordered against every real number."""

    __slots__ = ("_sign",)

    def __init__(self, sign):
        self._sign = sign

    def __lt__(self, other):
        if isinstance(other, _Infinite):
            return self._sign < other._sign
        return self._sign < 0

    def __le__(self, other):
        if isinstance(other, _Infinite):
            return self._sign <= other._sign
        return self._sign < 0

    def __gt__(self, other):
        if isinstance(other, _Infinite):
            return self._sign > other._sign
        return self._sign > 0

    def __ge__(self, other):
        if isinstance(other, _Infinite):
            return self._sign >= other._sign
        return self._sign > 0

    def __neg__(self):
        return NEG_INF if self._sign > 0 else POS_INF

    def __repr__(self):
        return "-inf" if self._sign < 0 else "+inf"

    def __reduce__(self):
        # keep the singletons unique across pickling
        return (_resolve, (self._sign,))


def _resolve(sign):
    return NEG_INF if sign < 0 else POS_INF


NEG_INF = _Infinite(-1)
POS_INF = _Infinite(+1)

Value = Union[int, float, Fraction, _Infinite]

# Absolute floor of every float comparison; kernels add a relative term.
TOL = 1e-9


def is_finite(a: Value) -> bool:
    return not isinstance(a, _Infinite)


def oplus(a: Value, b: Value) -> Value:
    """Semiring sum: the maximum under the extended total order."""
    return b if a < b else a


def otimes(a: Value, b: Value) -> Value:
    """Semiring product: ordinary addition with -inf absorbing.

    The order of the two checks makes -inf win against +inf, which is the
    convention the completed semiring needs.
    """
    if a is NEG_INF or b is NEG_INF:
        return NEG_INF
    if a is POS_INF or b is POS_INF:
        return POS_INF
    return a + b


def le_close(a: Value, b: Value, tol: float = TOL) -> bool:
    """a <= b, allowing float slack of tol."""
    if isinstance(a, _Infinite) or isinstance(b, _Infinite):
        return a <= b
    if isinstance(a, float) or isinstance(b, float):
        return a <= b + tol
    return a <= b


def coerce_value(v) -> Value:
    """Normalize a raw number into the completed semiring.

    Float infinities collapse onto the tagged singletons and numpy
    scalars onto plain Python numbers, so identity checks against
    NEG_INF stay reliable no matter where an entry came from.  Booleans
    and NaN are rejected.
    """
    kind = type(v)
    if kind is int or kind is Fraction or kind is _Infinite:
        return v
    if kind is float and math.isfinite(v):
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
        if math.isinf(f):
            return NEG_INF if f < 0 else POS_INF
        return f
    raise ValueError(f"not a max-plus value: {v!r}")


def parse_value(token) -> Value:
    """Parse a scalar from file input.

    Accepts numbers as-is (ints stay ints, bit exact), and the strings
    "-inf" / "+inf" (case insensitive, bare "inf" allowed) plus decimal
    literals.
    """
    if not isinstance(token, str):
        return coerce_value(token)
    text = token.strip().lower()
    if text == "-inf":
        return NEG_INF
    if text in ("+inf", "inf"):
        return POS_INF
    try:
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
    """
    if isinstance(v, float):
        if v != v:
            return "nan"
        if math.isinf(v):
            return "-inf" if v < 0 else "inf"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.12g}"
    if isinstance(v, _Infinite):
        return repr(v)
    if isinstance(v, Fraction) and v.denominator != 1:
        return format_value(float(v))
    return str(v)
