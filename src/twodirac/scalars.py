"""Exact scalars: Gaussian rationals, rational points on the unit circle and
rational unit vectors.

All linear algebra in this package runs over these types, so every equality
test downstream is decidable and free of rounding.  ``GaussianRational``
components are plain ints while they are integral (cheap arithmetic) and
``fractions.Fraction`` only when division makes them genuinely fractional.
A ``CirclePoint`` is integer numerators over one denominator: its arithmetic
is integer arithmetic, certified point by point by c**2 + d**2 = e**2.  A
``UnitVector``, the letter of a spin word, is stored the same way, integer
numerators w over e certified by sum w_a**2 = e**2, and the spin kernels
read its numerators directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
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


class CirclePoint:
    """An exact rational point ``(c, d)`` on the unit circle, ``c**2 + d**2 = 1``.

    Stored as integer numerators ``numerators = (c, d, e)``, the point
    (c / e, d / e) with e > 0 in lowest terms, so ``==`` compares the storage.
    Every construction (and so each product, conjugate, negation and square)
    goes through ``over``, which certifies c**2 + d**2 = e**2.  ``half``
    optionally carries a square-root witness (a point whose square is this
    one); it is provenance only and excluded from equality and the repr.
    """

    __slots__ = ("numerators", "half")

    def __new__(cls, c: Rational, d: Rational, half: Optional["CirclePoint"] = None):
        # an exact type test: a float such as 0.6 passes the circle test by rounding
        if type(c) not in (int, Fraction) or type(d) not in (int, Fraction):
            raise ValueError(f"circle point components must be int or Fraction, "
                             f"got ({c!r}, {d!r})")
        e = lcm(c.denominator, d.denominator)
        return cls.over(c.numerator * (e // c.denominator),
                        d.numerator * (e // d.denominator), e, half)

    @classmethod
    def over(cls, c: int, d: int, e: int,
             half: Optional["CirclePoint"] = None) -> "CirclePoint":
        """The point (c / e, d / e) for integers c, d and e > 0."""
        if e <= 0 or c * c + d * d != e * e:
            raise ValueError(f"({c}, {d}) / {e} is not on the unit circle")
        g = gcd(c, d, e)
        p = object.__new__(cls)
        p.numerators, p.half = (c // g, d // g, e // g), half
        return p

    # the components read back by value: an int when integral, else a Fraction
    @property
    def c(self) -> Rational:
        c, _, e = self.numerators
        return c if e == 1 else Fraction(c, e)

    @property
    def d(self) -> Rational:
        _, d, e = self.numerators
        return d if e == 1 else Fraction(d, e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CirclePoint):
            return NotImplemented
        return self.numerators == other.numerators

    def __hash__(self):
        return hash((self.c, self.d))

    def __repr__(self) -> str:
        return f"CirclePoint(c={self.c!r}, d={self.d!r})"

    def __mul__(self, other: "CirclePoint") -> "CirclePoint":
        a, b, e = self.numerators
        c, d, f = other.numerators
        return CirclePoint.over(a * c - b * d, a * d + b * c, e * f)

    def conj(self) -> "CirclePoint":
        c, d, e = self.numerators
        return CirclePoint.over(c, -d, e)

    def __neg__(self) -> "CirclePoint":
        c, d, e = self.numerators
        return CirclePoint.over(-c, -d, e)

    def square(self) -> "CirclePoint":
        """The doubled-angle point, carrying self as the half-angle witness."""
        c, d, e = self.numerators
        return CirclePoint.over(c * c - d * d, 2 * c * d, e * e, half=self)

    def as_gaussian(self) -> GaussianRational:
        return GaussianRational(self.c, self.d)

    def is_real(self) -> bool:
        return not self.numerators[1]


class UnitVector:
    """An exact rational unit vector w / e, ``sum w_a**2 = e**2``.

    Stored as integer numerators ``w`` (a tuple) over one denominator e > 0
    in lowest terms, so ``==`` compares the storage.  Every construction goes
    through ``over``, which certifies the norm on integers; rational
    components pass the exact int/``Fraction`` type test ``CirclePoint``
    makes first.  The components read back by value, an int when integral
    and else a ``Fraction``, through ``len``, indexing and iteration.
    """

    __slots__ = ("w", "e")

    def __new__(cls, components):
        v = tuple(components)
        # an exact type test: a float, bool or GaussianRational is refused
        if any(type(x) not in (int, Fraction) for x in v):
            raise ValueError(f"unit vector components must be int or Fraction, got {v!r}")
        e = lcm(*(x.denominator for x in v))
        return cls.over(tuple(x.numerator * (e // x.denominator) for x in v), e)

    @classmethod
    def over(cls, w, e: int) -> "UnitVector":
        """The vector w / e for integers w and e > 0."""
        if e <= 0:
            raise ValueError(f"unit vector denominator {e} is not positive")
        norm = sum(map(mul, w, w))
        if norm != e * e:
            values = tuple(_normalize(Fraction(x, e)) for x in w)
            raise ValueError(f"vector {values} has squared norm "
                             f"{_normalize(Fraction(norm, e * e))} != 1")
        g = gcd(e, *w)
        v = object.__new__(cls)
        v.w, v.e = tuple(x // g for x in w), e // g
        return v

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, a: int) -> Rational:
        return _normalize(Fraction(self.w[a], self.e))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.w)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitVector):
            return NotImplemented
        return self.w == other.w and self.e == other.e

    def __hash__(self):
        return hash((self.w, self.e))

    def __repr__(self) -> str:
        return f"UnitVector({tuple(self)!r})"


CIRCLE_ONE = CirclePoint(1, 0)
CIRCLE_MINUS_ONE = CirclePoint(-1, 0)
