"""Seeded exact samplers.

Everything here is driven by ``random.Random`` instances, so a fixed seed
reproduces the same rational data bit for bit.  Unit vectors come from the
rational parametrization of the sphere (inverse stereographic projection),
drawn straight as ``UnitVector`` numerators, and rotations from products of
Givens rotations at rational circle points; both tricks keep all invariants
exact without any normalization step that could fail.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from random import Random
from typing import List, Tuple

from .linalg import Matrix, identity, vdot
from .scalars import CirclePoint, UnitVector

INT_LO, INT_HI = -9, 9


def integer_vector(rng: Random, n: int, nonzero: bool = True) -> tuple:
    while True:
        v = tuple(rng.randint(INT_LO, INT_HI) for _ in range(n))
        if not nonzero or any(v):
            return v


def _ratio(rng: Random) -> Tuple[int, int]:
    """A numerator and a positive denominator, drawn in that order."""
    return rng.randint(INT_LO, INT_HI), rng.randint(1, 9)


def rational_fraction(rng: Random) -> Fraction:
    return Fraction(*_ratio(rng))


def unit_vector(rng: Random, n: int) -> UnitVector:
    """Exact rational unit vector in R^n via stereographic projection.

    The point z in R^(n-1) maps to (2z, |z|^2 - 1) / (|z|^2 + 1); with
    z = a / b over one denominator b that is the integer form
    (2ab, |a|^2 - b^2) / (|a|^2 + b^2), whose unit norm is an integer
    identity that ``UnitVector.over`` certifies.  The numerators are then
    shuffled and each negated at one ``rng.random()`` draw, so no
    ``Fraction`` is formed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return UnitVector.over((rng.choice((-1, 1)),), 1)
    z = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1)]
    b = lcm(*(d for _, d in z))
    a = [x * (b // d) for x, d in z]
    na = sum(x * x for x in a)
    v = [2 * x * b for x in a] + [na - b * b]
    # random signed permutation for coordinate coverage
    rng.shuffle(v)
    return UnitVector.over([x if rng.random() < 0.5 else -x for x in v], na + b * b)


def circle_point(rng: Random) -> CirclePoint:
    """Exact rational point on the unit circle: one of the four axis points
    with probability 0.1, else +-((1 - t^2), 2t) / (1 + t^2) at a seeded
    rational t, built from the numerators ``_circle_numerators`` draws."""
    return CirclePoint.over(*_circle_numerators(rng))


_AXIS_POINTS = ((1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))


def _circle_numerators(rng: Random) -> Tuple[int, int, int]:
    """The point ``circle_point`` draws, with exactly its draws, as integer
    numerators (c, d) over one positive denominator e in lowest terms.  At
    t = a / b the point is ((b^2 - a^2), 2ab) / (a^2 + b^2), negated when the
    roll says so."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(_AXIS_POINTS)
    a, b = _ratio(rng)
    c, d, e = b * b - a * a, 2 * a * b, a * a + b * b
    if roll < 0.55:
        c, d = -c, -d
    g = gcd(c, d, e)
    return c // g, d // g, e // g


def _circle_at(a: int, b: int) -> CirclePoint:
    """The point ((1 - t^2), 2t) / (1 + t^2) at t = a / b, in the integer form
    ((b^2 - a^2), 2ab) / (a^2 + b^2)."""
    return CirclePoint.over(b * b - a * a, 2 * a * b, a * a + b * b)


def circle_point_with_half(rng: Random) -> CirclePoint:
    """A circle point that carries an exact half-angle witness."""
    return circle_point(rng).square()


def givens(k: int, i: int, j: int, p: CirclePoint) -> Matrix:
    """Rotation by the point p = (c, d) / e in the (i, j) coordinate plane of R^k."""
    c, d, e = p.numerators
    rows = [[e * (a == b) for b in range(k)] for a in range(k)]
    rows[i][i] = rows[j][j] = c
    rows[i][j] = -d
    rows[j][i] = d
    return Matrix(rows).scaled(Fraction(1, e))


def rotation(rng: Random, k: int) -> Matrix:
    """Exact element of SO(k): a product of 2k seeded Givens rotations.

    Each factor ``givens(k, i, j, p)`` changes only rows i and j of the
    running product, kept as integer numerators r over one denominator.  The
    point p is drawn as ``circle_point`` draws it, but straight as its
    integer numerators p = (c, d) / e: the denominator gains the factor e,
    the other rows are multiplied by e, and rows i and j become
    c r_i - d r_j and d r_i + c r_j.
    """
    if k < 2:
        return identity(k)
    rows = [[int(a == b) for b in range(k)] for a in range(k)]
    den = 1
    for _ in range(2 * k):
        i = rng.randrange(k)
        j = rng.randrange(k)
        if i == j:
            continue
        c, d, e = _circle_numerators(rng)
        ri, rj = rows[i], rows[j]
        if e != 1:
            rows = [[e * x for x in r] for r in rows]
        rows[i] = [c * x - d * y for x, y in zip(ri, rj)]
        rows[j] = [d * x + c * y for x, y in zip(ri, rj)]
        den *= e
    return Matrix(rows).scaled(Fraction(1, den))


def deterministic_circle_points(count: int) -> List[CirclePoint]:
    """Fixed list of distinct rational circle points (no randomness)."""
    pts = []
    t = 0
    while len(pts) < count:
        t += 1
        pts.append(_circle_at(t, count + 1))
    return pts


def perpendicular_integer_vector(rng: Random, v: tuple) -> tuple:
    """Nonzero rational vector exactly orthogonal to the nonzero vector v."""
    nv = vdot(v, v)
    while True:
        u = integer_vector(rng, len(v))
        w = tuple(nv * x - vdot(u, v) * y for x, y in zip(u, v))
        if any(w):
            return w
