import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import same
from oracles import parse_token

from maxplus_martin import NEG_INF, POS_INF, is_finite, oplus
from maxplus_martin.semiring import coerce_value, format_value, parse_value

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


def test_order_against_reals():
    assert NEG_INF < -(10**100) < POS_INF
    assert NEG_INF < Fraction(1, 3) < POS_INF
    assert not NEG_INF < NEG_INF
    assert NEG_INF <= NEG_INF
    assert POS_INF >= POS_INF
    assert same(-NEG_INF, POS_INF)
    assert same(-POS_INF, NEG_INF)


def test_parse_value_tokens():
    assert same(parse_value("-inf"), NEG_INF)
    assert same(parse_value("-INF"), NEG_INF)
    assert same(parse_value("+inf"), POS_INF)
    assert same(parse_value("inf"), POS_INF)
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

    assert same(coerce_value(float("-inf")), NEG_INF)
    assert same(coerce_value(float("inf")), POS_INF)
    assert same(coerce_value(np.float64("-inf")), NEG_INF)
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
    assert format_value(POS_INF) == "inf"
    assert format_value(Fraction(4, 2)) == "2"
    assert format_value(Fraction(1, 2)) == "0.5"
    assert format_value(0.1) == "0.1"
    assert format_value(Fraction(1, 3)) == "0.333333333333"
    assert format_value(1e13) == "10000000000000"
    # past the float range: 12 significant digits, which read back as an infinity
    assert format_value(Fraction(10**400 + 1, 3)) == "3.33333333333e+399"
    assert format_value(Fraction(-2 * 10**400 - 1, 2)) == "-1e+400"
    assert format_value(Fraction(10**412 - 1, 1000)) == "1e+409"
    assert format_value(Fraction(25 * 10**400 + 1, 10)) == "2.5e+400"
    assert parse_value(format_value(Fraction(-(10**400) - 1, 3))) == NEG_INF
    # below the normal float range: 12 significant digits, not 0 or a subnormal's
    assert format_value(Fraction(1, 10**400)) == "1e-400"
    assert format_value(Fraction(-1, 10**400)) == "-1e-400"
    assert format_value(Fraction(1, 3 * 10**400)) == "3.33333333333e-401"
    assert format_value(Fraction(7, 10**320)) == "7e-320"
    assert format_value(Fraction(-1, 3 * 10**308)) == "-3.33333333333e-309"


def test_is_finite():
    assert is_finite(0) and is_finite(1e300) and is_finite(Fraction(1))
    assert not is_finite(NEG_INF) and not is_finite(POS_INF)
    assert is_finite(10**400) and is_finite(-(10**400))


def test_infinities_pickle_to_the_same_objects():
    for v in (NEG_INF, POS_INF):
        assert same(pickle.loads(pickle.dumps(v)), v)


def _same_parse(token):
    """parse_value(token) against oracles.parse_token: the same value of
    the same type, or ValueError with the same message."""
    try:
        want = parse_token(token)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_value(token)
        assert str(info.value) == str(exc)
        return
    got = parse_value(token)
    if want == "-inf":
        assert same(got, NEG_INF)
    elif want == "+inf":
        assert same(got, POS_INF)
    else:
        assert type(got) is type(want)
        assert repr(got) == repr(want)


TOKENS = ["1_000", " 12 ", "+5", "1e3", "1E3", "infinity", "-Infinity", "nan",
          "NaN", "-nan", "١٢", "-٣.5", "0x10", "1.5.2", "", " ",
          "-0", "007", "1_000.5", "1__0", "_1", ".5", "5.", "-.5e-3", "e3",
          "inf", "-INF", "+Inf", "+-3", "1 2", "\t-7\n", "10" * 30, "1e400"]


@pytest.mark.parametrize("token", TOKENS)
def test_parse_value_matches_the_oracle_on_odd_tokens(token):
    _same_parse(token)


decimal_tokens = st.builds(
    lambda sign, whole, frac, exp, pad: pad + sign + whole + frac + exp + pad,
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"[0-9_]{0,6}", fullmatch=True),
    st.sampled_from(["", "."]).flatmap(
        lambda dot: st.from_regex(r"[0-9]{0,4}", fullmatch=True).map(lambda d: dot + d)),
    st.sampled_from(["", "e", "E"]).flatmap(
        lambda e: st.from_regex(r"[-+]?[0-9]{0,3}", fullmatch=True).map(lambda d: e + d if e else "")),
    st.sampled_from(["", " ", "\t"]),
)


@given(st.one_of(decimal_tokens, st.text(max_size=8),
                 st.text(alphabet="0123456789.-+eEinfa_ x", max_size=8)))
def test_parse_value_matches_the_oracle(token):
    _same_parse(token)
