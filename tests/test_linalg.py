from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.linalg import (Matrix, block, det, gmat, hstack, identity_g,
                             identity_q, inverse, qmat, rank, rank_bareiss,
                             vstack, zeros_q)
from twodirac.scalars import GaussianRational, gr

import reference_elimination as field


def test_matrix_basics():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert a @ b == qmat([[2, 1], [4, 3]])
    assert a + b == qmat([[1, 3], [4, 4]])
    assert (-a).rows[0][0] == -1
    assert a.transpose() == qmat([[1, 3], [2, 4]])
    assert a.apply((1, 0)) == (1, 3)
    assert a.trace() == 5
    assert vstack(a, b).nrows == 4
    assert hstack(a, b).ncols == 4
    assert block([[a, b], [b, a]]).shape == (4, 4)


def test_shape_errors():
    with pytest.raises(ValueError):
        qmat([[1, 2], [3]])
    with pytest.raises(ValueError):
        qmat([[1, 2]]) @ qmat([[1, 2]])
    with pytest.raises(ValueError):
        qmat([[1, 2]]).apply((1, 2, 3))


def test_det_and_inverse():
    a = qmat([[2, 1], [1, 1]])
    assert det(a) == 1
    assert inverse(a) @ a == identity_q(2)
    assert det(qmat([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        inverse(qmat([[1, 2], [2, 4]]))
    g = gmat([[gr(0, 1), gr(1)], [gr(0), gr(2)]])
    assert g @ inverse(g) == identity_g(2)
    h = qmat([[1, 2, 0], [0, 1, 3], [4, 0, Fraction(1, 2)]])
    assert inverse(h) @ h == identity_q(3)
    assert inverse(qmat([[Fraction(2, 3)]])) == qmat([[Fraction(3, 2)]])
    # a row swap flips the sign; rational input gives a Fraction, Gaussian
    # input a GaussianRational
    assert type(det(qmat([[0, 1], [1, 0]]))) is Fraction
    assert det(qmat([[0, 1], [1, 0]])) == -1
    d = det(gmat([[0, gr(0, 1)], [gr(2), gr(1, 1)]]))
    assert isinstance(d, GaussianRational) and d == gr(0, -2)


def test_rank_on_rationals():
    assert rank(qmat([[1, 2], [2, 4]])) == 1
    assert rank(identity_q(4)) == 4
    assert rank(zeros_q(3, 5)) == 0
    assert rank(qmat([[Fraction(1, 3), 1], [1, 3]])) == 1


gauss_entries = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@st.composite
def gauss_matrices(draw):
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(gauss_entries, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Matrix(tuple(tuple(gr(a, b) for a, b in row) for row in rows))


@settings(max_examples=150, deadline=None)
@given(gauss_matrices())
def test_bareiss_agrees_with_field_elimination(m):
    assert rank_bareiss(m) == field.rank(m)


def test_bareiss_handles_fractional_entries():
    m = gmat([[gr(Fraction(1, 2), Fraction(1, 3)), gr(1)],
              [gr(Fraction(3, 2), 1), gr(3, Fraction(2, 5))]])
    assert rank_bareiss(m) == field.rank(m)


def test_bareiss_rank_deficient_columns():
    rng = Random(11)
    for _ in range(40):
        r, c = rng.randint(2, 7), rng.randint(2, 7)
        base = Matrix([[gr(rng.randint(-5, 5), rng.randint(-5, 5))
                        for _ in range(c)] for _ in range(r)])
        # plant duplicate and zero columns to force pivot skipping
        cols = list(zip(*base.rows))
        cols[0] = tuple(gr(0) for _ in range(r))
        if c >= 3:
            cols[2] = cols[1]
        m = Matrix(tuple(zip(*cols)))
        assert rank_bareiss(m) == field.rank(m)


fractions_ = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def square_matrices(draw):
    """Square rational or Gaussian matrices with int and fractional entries;
    about half are made singular by replacing a row with a multiple of
    another."""
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entry = st.builds(gr, fractions_, fractions_)
    else:
        entry = st.one_of(st.integers(-9, 9), fractions_)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                         min_size=k, max_size=k))
    if k > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                             unique=True))
        c = draw(entry)
        rows[i] = [c * x for x in rows[j]]
    return Matrix(rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_kernel_det_and_rank_agree_with_field_elimination(m):
    want = field.det(m)
    got = det(m)
    assert got == want
    assert type(got) is type(want)
    assert rank(m) == field.rank(m)
    assert (got == 0) == (rank(m) < m.nrows)
