"""Exact scalars: Gaussian rationals and rational points on the unit circle.

All linear algebra in this package runs over these types, so every equality
test downstream is decidable and free of rounding.  Components are kept as
plain ints while they are integral (cheap arithmetic) and promoted to
``fractions.Fraction`` only when division makes them genuinely fractional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

Rational = Union[int, Fraction]


def _normalize(x: Rational) -> Rational:
    # an exact type test: isinstance would run the ABC machinery for every int
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _exact_div(a: Rational, b: Rational) -> Rational:
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r == 0:
            return q
        return Fraction(a, b)
    return _normalize(Fraction(a) / Fraction(b))


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        self.re = _normalize(re)
        self.im = _normalize(im)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero GaussianRational")
        a, b, c, d = self.re, self.im, other.re, other.im
        nrm = c * c + d * d
        return GaussianRational(_exact_div(a * c + b * d, nrm),
                                _exact_div(b * c - a * d, nrm))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its real component, so it must hash alike
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"gr({self.re})"
        return f"gr({self.re}, {self.im})"


def _coerce(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def gr(re: Rational = 0, im: Rational = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


@dataclass(frozen=True)
class CirclePoint:
    """An exact rational point ``(c, d)`` on the unit circle, ``c**2 + d**2 = 1``.

    Used wherever an exact phase is needed.  ``half`` optionally carries a
    square-root witness (a point whose square is this one); it is provenance
    only and excluded from equality.
    """

    c: Rational
    d: Rational
    half: Optional["CirclePoint"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.c * self.c + self.d * self.d != 1:
            raise ValueError(f"({self.c}, {self.d}) is not on the unit circle")

    def __mul__(self, other: "CirclePoint") -> "CirclePoint":
        return CirclePoint(self.c * other.c - self.d * other.d,
                           self.c * other.d + self.d * other.c)

    def conj(self) -> "CirclePoint":
        return CirclePoint(self.c, -self.d)

    def __neg__(self) -> "CirclePoint":
        return CirclePoint(-self.c, -self.d)

    def square(self) -> "CirclePoint":
        """The doubled-angle point, carrying self as the half-angle witness."""
        return CirclePoint(self.c * self.c - self.d * self.d,
                           2 * self.c * self.d, half=self)

    def as_gaussian(self) -> GaussianRational:
        return GaussianRational(self.c, self.d)

    def is_real(self) -> bool:
        return not self.d


CIRCLE_ONE = CirclePoint(1, 0)
CIRCLE_MINUS_ONE = CirclePoint(-1, 0)
