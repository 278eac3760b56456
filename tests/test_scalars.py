from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twodirac.linalg import Matrix, identity
from twodirac.scalars import CIRCLE_MINUS_ONE, CIRCLE_ONE, CirclePoint, gr

from strategies import gaussians, rationals

gaussian = gaussians(rationals(20, 12))


@st.composite
def circle_components(draw) -> tuple:
    """(c, d) of a rational unit-circle point: an axis point as ints, or
    +-((1 - t^2), 2t) / (1 + t^2) at t = a / b as Fractions, integral at a = 0."""
    if draw(st.booleans()):
        return draw(st.sampled_from(((1, 0), (-1, 0), (0, 1), (0, -1))))
    a, b = draw(st.integers(-12, 12)), draw(st.integers(1, 12))
    den, sign = a * a + b * b, draw(st.sampled_from((1, -1)))
    return Fraction(sign * (b * b - a * a), den), Fraction(sign * 2 * a * b, den)


@given(gaussian, gaussian, gaussian)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussian)
def test_field_inverse(a):
    if a:
        assert a * (gr(1) / a) == gr(1)
        assert (1 / a) * a == gr(1)
    else:
        with pytest.raises(ZeroDivisionError):
            gr(1) / a


@given(gaussian, gaussian)
def test_conjugation_and_norm(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert not (a * a.conjugate()).im


@given(st.one_of(st.integers(-10 ** 20, 10 ** 20), rationals(20, 12)))
def test_hash_agrees_with_equality_on_real_values(x):
    assert gr(x) == x and hash(gr(x)) == hash(x)
    assert len({gr(x), x}) == 1


def test_equal_matrices_over_both_scalar_types_compare_equal():
    gaussian = Matrix([[gr(1), gr(0)], [gr(0), gr(1)]])
    assert identity(2) == gaussian


def test_mixed_scalar_arithmetic():
    assert gr(1, 2) * 3 == gr(3, 6)
    assert Fraction(1, 2) * gr(2, 4) == gr(1, 2)
    assert gr(0, 1) * gr(0, 1) == gr(-1)
    assert 1 - gr(0, 1) == gr(1, -1)


def test_components_stay_integral():
    x = gr(6, 4) / gr(2)
    assert isinstance(x.re, int) and isinstance(x.im, int)
    y = gr(1) / gr(3)
    assert isinstance(y.re, Fraction)


def test_circle_point_validation():
    CirclePoint(Fraction(3, 5), Fraction(4, 5))
    assert CirclePoint.over(-6, 8, 10) == CirclePoint(Fraction(-3, 5), Fraction(4, 5))
    with pytest.raises(ValueError):
        CirclePoint(Fraction(1, 2), Fraction(1, 2))
    for c, d, e in ((1, 1, 1), (3, 4, -5), (0, 0, 0)):
        with pytest.raises(ValueError, match="unit circle"):
            CirclePoint.over(c, d, e)
    # 0.36 + 0.64 == 1.0 in binary floating point: an inexact component is
    # refused by type, not by the circle test
    for c, d in ((0.6, 0.8), (gr(Fraction(3, 5)), Fraction(4, 5)), (1, 0.0)):
        with pytest.raises(ValueError, match="int or Fraction"):
            CirclePoint(c, d)


def test_circle_point_group_structure():
    p = CirclePoint(Fraction(3, 5), Fraction(4, 5))
    assert p * p.conj() == CIRCLE_ONE
    assert p * CIRCLE_ONE == p
    i = CirclePoint(0, 1)
    assert i * i == CIRCLE_MINUS_ONE
    sq = p.square()
    assert sq == p * p
    assert sq.half == p  # witness retained
    # equality ignores the witness
    assert sq == CirclePoint(sq.c, sq.d)


def _read_as(p: CirclePoint, c: Fraction, d: Fraction) -> bool:
    """p has the components (c, d), each read as an int exactly when integral."""
    return ((p.c, p.d) == (c, d)
            and [type(x) for x in (p.c, p.d)]
            == [int if x.denominator == 1 else Fraction for x in (c, d)])


@given(circle_components(), circle_components())
def test_circle_point_arithmetic_matches_a_fraction_oracle(u, v):
    """Products, conjugates, negations and squares on the integer numerators
    against the same formulas on Fractions, with axis points and integral
    results among the draws; equality and hashes follow the values."""
    c, d = map(Fraction, u)
    e, f = map(Fraction, v)
    p, q = CirclePoint(*u), CirclePoint(*v)
    assert _read_as(p, c, d) and _read_as(q, e, f)
    assert _read_as(p * q, c * e - d * f, c * f + d * e)
    assert _read_as(p.conj(), c, -d) and _read_as(-p, -c, -d)
    sq = p.square()
    assert _read_as(sq, c * c - d * d, 2 * c * d) and sq.half is p
    assert (p == q) == ((c, d) == (e, f))
    assert hash(p) == hash((c, d))
    assert hash(p * q) == hash((c * e - d * f, c * f + d * e))
    assert p * p.conj() == CIRCLE_ONE and p.is_real() == (d == 0)
