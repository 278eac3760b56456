from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twodirac.linalg import Matrix, identity
from twodirac.scalars import CIRCLE_MINUS_ONE, CIRCLE_ONE, CirclePoint, gr

from strategies import gaussians, rationals

gaussian = gaussians(rationals(20, 12))


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
    with pytest.raises(ValueError):
        CirclePoint(Fraction(1, 2), Fraction(1, 2))


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
