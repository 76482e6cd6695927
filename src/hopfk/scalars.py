"""Exact arithmetic in the field Q(i) of Gaussian rationals.

Every structure constant and every tensor entry in this package is a
``Scalar``: a complex number whose real and imaginary parts are rational.
Equality is exact; there are no tolerances anywhere downstream.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the accepted grammar."""


class Scalar:
    """An element of Q(i), stored as three ints ``(x, y, d)`` meaning
    (x + y i)/d, in normal form: d > 0 and gcd(x, y, d) = 1.

    So equal values store equal ints, and a sum or product of two entries
    with d = 1 costs two or four int operations and no gcd.  ``re`` and
    ``im`` are read-only ``Fraction`` properties.  Instances are immutable
    and hashable: every assignment raises, and only construction writes
    the three ints, through the slots' own setters.  The parts are ints,
    ``Fraction``s (or other rationals) or numeral strings such as
    ``"-1/2"``; a float or complex raises ``TypeError``.
    """

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, re=0, im=0):
        a, b = _rational(re)
        c, e = _rational(im)
        d = lcm(b, e)  # a/b and c/e in lowest terms make (x, y, d) normal
        _set_x(self, a * (d // b))
        _set_y(self, c * (d // e))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
        d, e = self._d, other._d
        if d == e == 1:
            return _make(self._x + other._x, self._y + other._y, 1)
        return _reduced(self._x * e + other._x * d, self._y * e + other._y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
        d, e = self._d, other._d
        if d == e == 1:
            return _make(self._x - other._x, self._y - other._y, 1)
        return _reduced(self._x * e - other._x * d, self._y * e - other._y * d, d * e)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = _coerce(other)
        x1, y1, x2, y2 = self._x, self._y, other._x, other._y
        d = self._d * other._d
        if d == 1:
            return _make(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, 1)
        return _reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (x1 + y1 i)/d1 / ((x2 + y2 i)/d2) = (x1 + y1 i)(x2 - y2 i) d2 / (d1 (x2^2 + y2^2))
        other = _coerce(other)
        x1, y1, x2, y2, e = self._x, self._y, other._x, other._y, other._d
        norm = x2 * x2 + y2 * y2
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((x1 * x2 + y1 * y2) * e, (y1 * x2 - x1 * y2) * e, self._d * norm)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return _make(-self._x, -self._y, self._d)

    def conjugate(self):
        return _make(self._x, -self._y, self._d)

    # -- comparisons and hashing ------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is Scalar:
            return self._x == other._x and self._y == other._y and self._d == other._d
        if isinstance(other, int):
            return self._y == 0 and self._d == 1 and self._x == other
        if isinstance(other, Fraction):
            return self._y == 0 and self._x == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # A real value hashes as its ``Fraction``, which agrees with ``int``
        # and ``Fraction`` on the values they are equal to.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self._x != 0 or self._y != 0

    def is_zero(self):
        return self._x == 0 and self._y == 0

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


_new = object.__new__
_set_x, _set_y, _set_d = Scalar._x.__set__, Scalar._y.__set__, Scalar._d.__set__


def _make(x, y, d) -> Scalar:
    """The Scalar (x + y i)/d, whose ints are already in normal form."""
    s = _new(Scalar)
    _set_x(s, x)
    _set_y(s, y)
    _set_d(s, d)
    return s


def _reduced(x, y, d) -> Scalar:
    """The Scalar (x + y i)/d for d > 0, brought to normal form."""
    g = gcd(x, y, d)
    if g == 1:
        return _make(x, y, d)
    return _make(x // g, y // g, d // g)


def _rational(value):
    """A part given to the constructor as (numerator, denominator) in lowest terms."""
    if isinstance(value, str):
        value = Fraction(value)
    elif not isinstance(value, Rational):
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")
    return int(value.numerator), int(value.denominator)


def _coerce(value) -> Scalar:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


# Grammar: an optional rational a[/b] and an optional imaginary part [c[/d]]i,
# each with an optional sign; the sign before the imaginary part is required
# when a real part precedes it.
_SCALAR = re.compile(
    r"(?P<re>[+-]?[0-9]+(?:/[0-9]+)?)?"
    r"(?P<im>(?(re)[+-]|[+-]?)(?:[0-9]+(?:/[0-9]+)?)?i)?"
)


def parse_scalar(text: str) -> Scalar:
    """Parse ``[+-]a[/b][ +- c[/d]i ]`` (or a lone imaginary part)."""
    s = text.replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar string")
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    re_part, im_part = m.group("re", "im")
    if im_part is not None:
        im_part = im_part[:-1]
        if im_part in ("", "+", "-"):
            im_part += "1"
    try:
        return Scalar(re_part or 0, im_part or 0)
    except ZeroDivisionError as exc:
        raise ScalarParseError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # a numeral longer than int() converts
        raise ScalarParseError(f"too many digits in a scalar of {len(s)} characters") from exc


def _format_rational(n, d) -> str:
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form; ``parse_scalar(format_scalar(s)) == s``."""
    x, y, d = s._x, s._y, s._d
    if y == 0:
        return _format_rational(x, d)
    imag = "i" if abs(y) == d else _format_rational(abs(y), d) + "i"
    if x == 0:
        return ("-" if y < 0 else "") + imag
    return _format_rational(x, d) + ("-" if y < 0 else "+") + imag
