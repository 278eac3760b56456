from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodirac.linalg import (Matrix, block, det, gmat, hstack, identity_g,
                             identity_q, inverse, qmat, rank, rank_bareiss,
                             vstack, zeros_q)
from twodirac.scalars import GaussianRational, gr

import reference_elimination as field
import reference_matmul


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


_ZEROS = {"int": (0,), "rational": (0, Fraction(0)), "gaussian": (gr(0),),
          "mixed": (0, Fraction(0), gr(0))}


@st.composite
def product_operands(draw):
    """Two compatible matrices, each of int, rational, Gaussian or mixed
    entries; shapes down to 1 x k and k x 1, most of them zero-heavy, some
    with a zero row on the left or a zero column on the right."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    # integral Fractions such as Fraction(4, 2) are among the inputs
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    nonzero = {"int": st.integers(-4, 4), "rational": st.one_of(st.integers(-4, 4), fraction)}
    nonzero["gaussian"] = st.builds(gr, nonzero["rational"], nonzero["rational"])
    nonzero["mixed"] = st.one_of(nonzero["rational"], nonzero["gaussian"])

    def matrix(nr, nc):
        kind = draw(st.sampled_from(sorted(_ZEROS)))
        zero_share = draw(st.sampled_from((0, 1, 2, 3)))   # in quarters
        entry = st.integers(0, 3).flatmap(
            lambda q: st.sampled_from(_ZEROS[kind]) if q < zero_share
            else nonzero[kind])
        rows = [draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
        return rows, _ZEROS[kind][-1]

    (a, a_zero), (b, b_zero) = matrix(r, k), matrix(k, c)
    if draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [a_zero] * k
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in b:
            row[j] = b_zero
    return Matrix(a), Matrix(b)


def _has_gaussian(entries) -> bool:
    return any(isinstance(e, GaussianRational) for e in entries)


def _assert_typed(entries, gaussian: bool) -> None:
    """The product's entry-type rule, and components normalised: an integral
    rational is an int, any other a Fraction."""
    def normal(x):
        return type(x) is (int if x.denominator == 1 else Fraction)

    for e in entries:
        if gaussian:
            assert type(e) is GaussianRational and normal(e.re) and normal(e.im)
        else:
            assert normal(e)


@settings(max_examples=200, deadline=None)
@given(product_operands())
@example((Matrix([[1, Fraction(1, 2), gr(0, 1)]]), Matrix([[2], [0], [gr(0, -1)]])))
@example((Matrix([[Fraction(2, 3)], [0]]), Matrix([[3, Fraction(1, 2), 0]])))
def test_product_kernel_agrees_with_sum_of_products(ab):
    a, b = ab
    want = reference_matmul.matmul(a, b)
    got = a @ b
    assert got.shape == want.shape
    assert got == want
    flat = [e for r in a.rows + b.rows for e in r]
    _assert_typed([e for r in got.rows for e in r], _has_gaussian(flat))
    for j in range(b.ncols):
        v = b.col(j)
        col = a.apply(v)
        assert col == want.col(j)
        _assert_typed(col, _has_gaussian([e for r in a.rows for e in r] + list(v)))
    wrong = Matrix([[0]] * (a.ncols + 1))
    with pytest.raises(ValueError):
        a @ wrong
    with pytest.raises(ValueError):
        a.apply((0,) * (a.ncols + 1))
