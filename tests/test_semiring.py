import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxplus_martin import NEG_INF, POS_INF, is_finite, oplus, otimes
from maxplus_martin.semiring import (
    coerce_value,
    format_value,
    le_close,
    parse_value,
)

scalars = st.one_of(
    st.integers(-50, 50),
    st.floats(-50, 50, allow_nan=False),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
    st.sampled_from([NEG_INF, POS_INF]),
)


@given(scalars, scalars)
def test_oplus_commutes(a, b):
    assert oplus(a, b) is oplus(b, a) or oplus(a, b) == oplus(b, a)


@given(scalars, scalars, scalars)
def test_oplus_associates(a, b, c):
    left = oplus(oplus(a, b), c)
    right = oplus(a, oplus(b, c))
    assert left == right or left is right


@given(scalars)
def test_neutral_elements(a):
    assert oplus(a, NEG_INF) is a or oplus(a, NEG_INF) == a
    assert otimes(a, 0) is a or otimes(a, 0) == a


@given(scalars, scalars, scalars)
def test_otimes_distributes_over_oplus(a, b, c):
    left = otimes(a, oplus(b, c))
    right = oplus(otimes(a, b), otimes(a, c))
    assert left == right or left is right


@given(scalars)
def test_neg_inf_absorbs(a):
    assert otimes(a, NEG_INF) is NEG_INF
    assert otimes(NEG_INF, a) is NEG_INF


def test_completed_product_convention():
    # -inf wins against +inf from either side
    assert otimes(NEG_INF, POS_INF) is NEG_INF
    assert otimes(POS_INF, NEG_INF) is NEG_INF
    assert otimes(POS_INF, POS_INF) is POS_INF
    assert otimes(POS_INF, 3) is POS_INF


def test_order_against_reals():
    assert NEG_INF < -(10**100) < POS_INF
    assert NEG_INF < Fraction(1, 3) < POS_INF
    assert not NEG_INF < NEG_INF
    assert NEG_INF <= NEG_INF
    assert POS_INF >= POS_INF
    assert -NEG_INF is POS_INF
    assert -POS_INF is NEG_INF


def test_le_close_semantics():
    assert le_close(NEG_INF, -5)
    assert not le_close(5, NEG_INF)
    assert le_close(1 + 1e-10, 1.0)
    assert not le_close(1 + 1e-8, 1.0)
    assert le_close(1, 1)


def test_parse_value_tokens():
    assert parse_value("-inf") is NEG_INF
    assert parse_value("-INF") is NEG_INF
    assert parse_value("+inf") is POS_INF
    assert parse_value("inf") is POS_INF
    assert parse_value("3") == 3 and isinstance(parse_value("3"), int)
    assert parse_value("-2.5") == -2.5
    assert parse_value(7) == 7
    with pytest.raises(ValueError):
        parse_value("three")
    with pytest.raises(ValueError):
        parse_value(True)
    with pytest.raises(ValueError):
        parse_value(None)


def test_coerce_value_normalizes_raw_floats():
    import numpy as np

    assert coerce_value(float("-inf")) is NEG_INF
    assert coerce_value(float("inf")) is POS_INF
    assert coerce_value(np.float64("-inf")) is NEG_INF
    v = coerce_value(np.int64(4))
    assert v == 4 and type(v) is int
    assert type(coerce_value(np.float64(0.5))) is float
    assert coerce_value(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        coerce_value(float("nan"))
    with pytest.raises(ValueError):
        coerce_value(True)


def test_format_value_round_trip():
    assert format_value(3) == "3"
    assert format_value(NEG_INF) == "-inf"
    assert format_value(POS_INF) == "+inf"
    assert format_value(Fraction(4, 2)) == "2"
    assert format_value(Fraction(1, 2)) == "0.5"
    assert format_value(0.1) == "0.1"
    assert format_value(Fraction(1, 3)) == "0.333333333333"
    assert format_value(1e13) == "10000000000000"


def test_is_finite():
    assert is_finite(0) and is_finite(1e300) and is_finite(Fraction(1))
    assert not is_finite(NEG_INF) and not is_finite(POS_INF)


def test_infinities_pickle_to_the_same_objects():
    for v in (NEG_INF, POS_INF):
        assert pickle.loads(pickle.dumps(v)) is v
