from decimal import Decimal
from fractions import Fraction
from math import gcd

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
from hopfk.heegaard import lens_diagram
from hopfk.hopf import build_kac_paljutkin, validate_hopf
from hopfk.invariant import contract_invariant

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
    for name in ("re", "im", "_x", "_y", "_d", "z"):
        with pytest.raises(AttributeError):
            setattr(a, name, 5)
    assert a == Scalar(1, 2)
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


@pytest.mark.parametrize(
    "args, text",
    [
        ((), "0"),
        ((3,), "3"),
        ((-2, 5), "-2+5i"),
        ((True, False), "1"),
        ((Fraction(1, 2), Fraction(-1, 3)), "1/2-1/3i"),
        ((Fraction(4, 2),), "2"),
        (("-1/2",), "-1/2"),
        (("+3", "-2/6"), "3-1/3i"),
        ((0, "1"), "i"),
        ((2, Fraction(1, 4)), "2+1/4i"),
    ],
)
def test_constructor_forms(args, text):
    s = Scalar(*args)
    assert format_scalar(s) == text and parse_scalar(text) == s


@pytest.mark.parametrize(
    "args, kind",
    [((0.1,), "float"), ((1, 0.5), "float"), ((1j,), "complex"), ((0, 2 + 0j), "complex"),
     ((Decimal("0.1"),), "Decimal"), ((ONE,), "Scalar"), ((None,), "NoneType")],
)
def test_constructor_refuses_what_arithmetic_refuses(args, kind):
    # Scalar(0.1) used to be the float's binary value, 3602879701896397/2**55.
    message = f"cannot coerce {kind} to Scalar"
    with pytest.raises(TypeError, match=message):
        Scalar(*args)
    if kind in ("float", "complex"):
        with pytest.raises(TypeError, match=message):
            ONE + args[-1]


class Reference:
    """The former representation, two ``Fraction``s, as a test-side oracle."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Reference(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Reference(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Reference(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        norm = o.re * o.re + o.im * o.im
        return Reference((self.re * o.re + self.im * o.im) / norm, (self.im * o.re - self.re * o.im) / norm)

    def __neg__(self):
        return Reference(-self.re, -self.im)

    def conjugate(self):
        return Reference(self.re, -self.im)

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def text(self):
        def rational(v):
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

        if self.im == 0:
            return rational(self.re)
        imag = "i" if abs(self.im) == 1 else rational(abs(self.im)) + "i"
        sign = "-" if self.im < 0 else "+"
        return (sign.strip("+") if self.re == 0 else rational(self.re) + sign) + imag


def agrees(s, ref):
    """``s`` is in normal form and has the reference's parts, hash and text."""
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == (ref.re, ref.im)
    assert s._d > 0 and gcd(s._x, s._y, s._d) == 1
    assert hash(s) == hash(ref) and format_scalar(s) == ref.text()
    assert bool(s) == (ref.re != 0 or ref.im != 0) == (not s.is_zero())


# Large parts reach the gcd reduction; small ones, equal values and d = 1.
big_rationals = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**12))
parts = st.one_of(big_rationals, st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
pairs = st.tuples(parts, parts)


@given(pairs, pairs)
@example((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))
@example((3, 0), (Fraction(1, 3), 0))
def test_scalar_agrees_with_fraction_pair_reference(p, q):
    a, b, ra, rb = Scalar(*p), Scalar(*q), Reference(*p), Reference(*q)
    agrees(a, ra)
    for s, ref in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
                   (a.conjugate(), ra.conjugate()), (a + q[0], ra + Reference(q[0])),
                   (q[0] * a, Reference(q[0]) * ra)):
        agrees(s, ref)
    if rb.re or rb.im:
        agrees(a / b, ra / rb)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b
    assert (a == b) == ((ra.re, ra.im) == (rb.re, rb.im))
    for value in (q[0], q[1]):
        assert (a == value) == (ra.re == value and ra.im == 0)


def test_no_fraction_on_the_contraction_or_validation_path(monkeypatch):
    H = build_kac_paljutkin()
    D = lens_diagram(24).with_colors(H.pi, (1,))
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    Z, K = contract_invariant(H, D)
    assert validate_hopf(H).passed
    assert made == []
    assert (Z, K) == (Scalar(16), Scalar(4))  # K of L(24) colored 1 is 4, and dim H_1 = 4
    ONE.re  # the counter does see a Fraction being built
    assert made == [(1, 1)]
