"""Exact arithmetic in the field Q(i) of Gaussian rationals.

Every structure constant and every tensor entry in this package is a
``Scalar``: a complex number whose real and imaginary parts are rational.
Equality is exact; there are no tolerances anywhere downstream.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the accepted grammar."""


class Scalar:
    """An element of Q(i), stored as a pair of ``Fraction`` values.

    ``Fraction`` keeps both parts in lowest terms with a positive
    denominator, which is exactly the normal form we need.  Instances are
    immutable and hashable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def conjugate(self):
        return Scalar(self.re, -self.im)

    # -- comparisons and hashing ------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is Scalar:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real value hashes as its ``Fraction``, which agrees with ``int``
        # and ``Fraction`` on the values they are equal to.
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_zero(self):
        return self.re == 0 and self.im == 0

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


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


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form; ``parse_scalar(format_scalar(s)) == s``."""
    if s.re == 0 and s.im == 0:
        return "0"
    if s.im == 0:
        return _format_rational(s.re)
    imag = "i" if abs(s.im) == 1 else _format_rational(abs(s.im)) + "i"
    if s.re == 0:
        return ("-" if s.im < 0 else "") + imag
    return _format_rational(s.re) + ("-" if s.im < 0 else "+") + imag
