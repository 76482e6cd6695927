from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from hopfk.scalars import (
    I,
    ONE,
    Scalar,
    ScalarParseError,
    ZERO,
    format_scalar,
    parse_scalar,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars)
def test_division_inverts(a):
    if not a.is_zero():
        assert a / a == ONE
        assert (ONE / a) * a == ONE


@given(scalars)
def test_parse_format_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_imaginary_unit():
    assert I * I == Scalar(-1)
    assert I.conjugate() == -I
    assert (Scalar(1, 2) * Scalar(1, -2)) == Scalar(5)


def test_parse_examples():
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar("-1/2") == Scalar(Fraction(-1, 2))
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2/3i") == Scalar(0, Fraction(2, 3))
    assert parse_scalar("1/2+1/2i") == Scalar(Fraction(1, 2), Fraction(1, 2))
    assert parse_scalar("1 - 2i") == Scalar(1, -2)
    assert parse_scalar("0") == ZERO
    assert parse_scalar("+i") == I
    assert parse_scalar("1-i") == Scalar(1, -1)
    assert parse_scalar("-0") == ZERO


@pytest.mark.parametrize(
    "bad",
    ["", "x", "1/0", "1+2", "i2", "1//2", "+-1", "2i+1", "/3i", "0/0", "1+0/0i", "1i+2", "3\n",
     # digits are ASCII only: an Arabic-Indic three, a fullwidth one
     "\u0663", "\uff11", "1/\u0663", "\u0663i"],
)
def test_parse_rejects(bad):
    with pytest.raises(ScalarParseError):
        parse_scalar(bad)


def test_format_canonical():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(Scalar(Fraction(2, 4))) == "1/2"
    assert format_scalar(Scalar(0, -1)) == "-i"
    assert format_scalar(Scalar(1, Fraction(-1, 3))) == "1-1/3i"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_immutability_and_hash():
    a = Scalar(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)
    assert hash(Scalar(1, 2)) == hash(Scalar(1, 2))
    assert len({Scalar(1), Scalar(1), Scalar(2)}) == 2


# Few values, so that a draw often meets an equal one of another type.
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=2)
numbers = st.one_of(
    st.builds(Scalar, small_rationals, small_rationals),
    st.builds(Scalar, small_rationals),
    small_rationals,
    st.integers(-2, 2),
)


@given(numbers, numbers)
@example(Scalar(2), 2)
@example(Fraction(1, 2), Scalar(Fraction(1, 2)))
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b) and a in {b}
