from fractions import Fraction
from itertools import chain
from math import lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodirac.linalg import (_I, _P, Matrix, _bareiss, _rank_mod_p, block, cleared, det,
                             frobenius_sq, has_orthonormal_columns, hstack, identity,
                             inverse, masked, mirrored, rank, rank_bareiss, row_map,
                             scalar_of, submatrix, support, vstack, zeros)
from twodirac.sampling import rotation, unit_vector
from twodirac.scalars import GaussianRational, gr

import reference_elimination as field
import reference_matmul
from strategies import gaussians, matrices, ratios, seeds


def test_matrix_basics():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a @ b == Matrix([[2, 1], [4, 3]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert (-a).rows[0][0] == -1
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    assert a.apply((1, 0)) == (1, 3)
    assert vstack(a, b).nrows == 4
    assert hstack(a, b).ncols == 4
    assert block([[a, b], [b, a]]).shape == (4, 4)


def test_shape_errors():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]).apply((1, 2, 3))
    with pytest.raises(ValueError, match=r"\(1, 2\) \+ \(1, 1\)"):
        Matrix([[1, 2]]) + Matrix([[1]])
    with pytest.raises(ValueError, match=r"\(2, 2\) - \(1, 2\)"):
        Matrix([[1, 2], [3, 4]]) - Matrix([[1, 2]])
    with pytest.raises(ValueError):
        masked(Matrix([[1, 2]]), Matrix([[1], [0]]))
    for not_a_mask in (Matrix([[Fraction(1, 2), 1]]), Matrix([[gr(0, 1), 1]])):
        with pytest.raises(ValueError):
            masked(Matrix([[1, 2]]), not_a_mask)
    # mirrored takes a square m and a permutation of its indices
    for m, perm in ((Matrix([[1, 2]]), (0,)), (Matrix([[1, 2]]), (1, 0)),
                    (identity(2), (0, 0)), (identity(2), (0,))):
        with pytest.raises(ValueError):
            mirrored(m, perm)


def test_det_and_inverse():
    a = Matrix([[2, 1], [1, 1]])
    assert det(a) == 1
    assert inverse(a) @ a == identity(2)
    assert det(Matrix([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))
    g = Matrix([[gr(0, 1), gr(1)], [gr(0), gr(2)]])
    assert g @ inverse(g) == identity(2)
    h = Matrix([[1, 2, 0], [0, 1, 3], [4, 0, Fraction(1, 2)]])
    assert inverse(h) @ h == identity(3)
    assert inverse(Matrix([[Fraction(2, 3)]])) == Matrix([[Fraction(3, 2)]])
    # a row swap flips the sign; the value alone fixes the type: an int when
    # integral, a Fraction when not, a GaussianRational when not real
    assert type(det(Matrix([[0, 1], [1, 0]]))) is int
    assert det(Matrix([[0, 1], [1, 0]])) == -1
    assert type(det(Matrix([[Fraction(1, 2)]]))) is Fraction
    assert type(det(Matrix([[gr(0, 1), 0], [0, gr(0, 1)]]))) is int
    d = det(Matrix([[0, gr(0, 1)], [gr(2), gr(1, 1)]]))
    assert isinstance(d, GaussianRational) and d == gr(0, -2)


def test_rank_on_rationals():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1
    assert rank(identity(4)) == 4
    assert rank(zeros(3, 5)) == 0
    assert rank(Matrix([[Fraction(1, 3), 1], [1, 3]])) == 1


gauss_entries = gaussians(st.integers(-9, 9))


@st.composite
def gauss_matrices(draw):
    return draw(matrices(gauss_entries, draw(st.integers(1, 6)), draw(st.integers(1, 6))))


@st.composite
def low_rank_gauss_matrices(draw):
    """Products of an r x k and a k x c Gaussian matrix, k = 1..3, so that
    many have rank below min(r, c)."""
    k = draw(st.integers(1, 3))
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return draw(matrices(gauss_entries, r, k)) @ draw(matrices(gauss_entries, k, c))


@settings(max_examples=150, deadline=None)
@given(st.one_of(gauss_matrices(), low_rank_gauss_matrices()))
@example(identity(3))
@example(Matrix([[1, gr(0, 1)], [gr(0, 1), 1]]))
def test_bareiss_agrees_with_field_elimination(m):
    assert rank_bareiss(m) == field.rank(m)
    # the fallback on its own, which the modular certificate rarely reaches
    assert _bareiss(m)[0] == field.rank(m)


def test_modulus_is_a_prime_one_mod_four_with_a_root_of_minus_one():
    assert _P > 2 and all(_P % d for d in range(2, int(_P ** 0.5) + 1))
    assert _P % 4 == 1
    assert _I * _I % _P == _P - 1


def test_a_shortfall_mod_p_falls_back_to_bareiss():
    # each entry vanishes mod p but not over Q(i)
    for m in (Matrix([[_P]]), Matrix([[gr(_P - _I, 1)]])):
        assert _rank_mod_p(m) == 0
        assert rank(m) == 1
    two = Matrix([[_P, 0], [0, 1]])
    assert _rank_mod_p(two) == 1 and rank(two) == 2
    # a shortfall below the bound is not the bound either
    one = Matrix([[_P, 0], [0, 0]])
    assert _rank_mod_p(one) == 0 and rank(one) == 1


def test_bareiss_handles_fractional_entries():
    m = Matrix([[gr(Fraction(1, 2), Fraction(1, 3)), gr(1)],
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


fractions_ = ratios(9, 4)
scalars = st.one_of(fractions_, gaussians(fractions_), st.just(0))


@st.composite
def square_matrices(draw):
    """Square rational or Gaussian matrices with int and fractional entries;
    about half are made singular by replacing a row with a multiple of
    another."""
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entry = gaussians(fractions_)
    else:
        entry = st.one_of(st.integers(-9, 9), fractions_)
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
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
    _assert_read([got])
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
    rational = st.one_of(st.integers(-4, 4), ratios(6, 4))
    gaussian = gaussians(rational)
    nonzero = {"int": st.integers(-4, 4), "rational": rational, "gaussian": gaussian,
               "mixed": st.one_of(rational, gaussian)}

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


def _assert_read(entries) -> None:
    """The reading rule, and components normalised: a GaussianRational
    exactly when the imaginary part is nonzero; an integral rational is an
    int, any other a Fraction."""
    def normal(x):
        return type(x) is (int if x.denominator == 1 else Fraction)

    for e in entries:
        if type(e) is GaussianRational:
            assert e.im and normal(e.re) and normal(e.im)
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
    _assert_read([e for r in got.rows for e in r])
    for j in range(b.ncols):
        v = b.col(j)
        col = a.apply(v)
        assert col == want.col(j)
        _assert_read(col)
    wrong = Matrix([[0]] * (a.ncols + 1))
    with pytest.raises(ValueError):
        a @ wrong
    with pytest.raises(ValueError):
        a.apply((0,) * (a.ncols + 1))


@settings(max_examples=150, deadline=None)
@given(product_operands(), fractions_)
def test_results_are_stored_as_the_entries_they_read(ab, t):
    """Every operation stores its result as the matrix of the entries it
    reads, in lowest terms, so equal matrices compare alike."""
    a, b = ab
    p = a @ b
    results = [p, p + p, p - p, -p, p.scaled(t), p.scaled(gr(0, t)), a.transpose(),
               a.adjoint(), hstack(a, a), vstack(b, b), submatrix(p, 0, 1, 0, 1)]
    if p.nrows == p.ncols and det(p):
        results.append(inverse(p))
    for m in results:
        again = Matrix(m.rows)
        assert m == again


@settings(max_examples=150, deadline=None)
@given(product_operands(), scalars)
def test_scaling_agrees_with_the_product_by_a_scalar_matrix(ab, t):
    # the scalar matrix t I is multiplied by the sum-of-products oracle
    a, _ = ab
    n = a.ncols
    scalar = Matrix(tuple(t if i == j else 0 for j in range(n)) for i in range(n))
    got = a.scaled(t)
    assert got == reference_matmul.matmul(a, scalar)
    _assert_read([e for r in got.rows for e in r])


@settings(max_examples=100, deadline=None)
@given(product_operands(), scalars)
def test_scalar_of_reads_exactly_the_scalar_matrices(ab, t):
    a, _ = ab
    n = a.nrows
    assert scalar_of(Matrix(tuple(t if i == j else 0 for j in range(n))
                            for i in range(n))) == t
    c = a[0, 0]
    scalar = a.ncols == n and all(e == (c if i == j else 0)
                                  for i, r in enumerate(a.rows) for j, e in enumerate(r))
    assert scalar_of(a) == (c if scalar else None)


@settings(max_examples=100, deadline=None)
@given(product_operands())
def test_frobenius_norm_is_the_trace_of_m_times_its_adjoint(ab):
    a, _ = ab
    g = reference_matmul.matmul(a, a.adjoint())
    assert frobenius_sq(a) == sum(g[i, i] for i in range(g.nrows))


@settings(max_examples=150, deadline=None)
@given(product_operands(), st.data())
def test_row_map_agrees_with_the_dense_integer_product(ab, data):
    """S @ m with S given row by row as (source row, weight) lists, against
    the dense S: empty rows, repeated sources and zero weights included."""
    m = ab[0]
    term = st.tuples(st.integers(0, m.nrows - 1), st.integers(-3, 3))
    rows = data.draw(st.lists(st.lists(term, max_size=4), min_size=1, max_size=6))
    dense = [[0] * m.nrows for _ in rows]
    for r, terms in enumerate(rows):
        for src, w in terms:
            dense[r][src] += w
    got = row_map(m, rows)
    assert got == Matrix(dense) @ m == reference_matmul.matmul(Matrix(dense), m)
    _assert_read([e for r in got.rows for e in r])


@settings(max_examples=150, deadline=None)
@given(product_operands(), st.data())
def test_difference_mask_and_mirror_agree_with_their_entrywise_reading(ab, data):
    a, b = ab
    q = min(a.nrows, b.ncols)
    x, y = submatrix(a, 0, q, 0, a.ncols), submatrix(b.transpose(), 0, q, 0, a.ncols)
    want = Matrix(tuple(u - v for u, v in zip(ru, rv)) for ru, rv in zip(x.rows, y.rows))
    assert x - y == want == x + -y
    _assert_read([e for r in (x - y).rows for e in r])

    mask = data.draw(matrices(st.integers(0, 1), q, x.ncols))
    got = masked(x, mask)
    assert got == Matrix(tuple(u if k else 0 for u, k in zip(r, kr))
                         for r, kr in zip(x.rows, mask.rows))
    assert got + masked(x, Matrix([[1] * x.ncols] * q) - mask) == x
    _assert_read([e for r in got.rows for e in r])

    # the sum-of-products oracle forms -P m^T P^T with P[r][perm[r]] = 1
    k = min(x.shape)
    m = submatrix(x, 0, k, 0, k)
    perm = data.draw(st.permutations(range(k)))
    p = Matrix(tuple(int(c == perm[r]) for c in range(k)) for r in range(k))
    got = mirrored(m, perm)
    assert got == -reference_matmul.matmul(reference_matmul.matmul(p, m.transpose()),
                                           p.transpose())
    _assert_read([e for r in got.rows for e in r])


@st.composite
def row_blocks(draw):
    """One to three blocks with a common row count, each of int, rational or
    Gaussian entries, over their own denominators."""
    r = draw(st.integers(1, 4))
    kinds = st.sampled_from((st.integers(-4, 4), ratios(6, 6), gaussians(ratios(6, 6))))
    return [draw(matrices(draw(kinds), r, draw(st.integers(1, 4))))
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=150, deadline=None)
@given(row_blocks())
@example([Matrix([[Fraction(1, 2)], [1]]), Matrix([[gr(Fraction(1, 3), 1)], [0]]),
          Matrix([[2, 3], [4, 5]])])
def test_hstack_agrees_with_the_transpose_route(blocks):
    got = hstack(*blocks)
    assert got == vstack(*(m.transpose() for m in blocks)).transpose()
    assert got == Matrix(tuple(chain.from_iterable(rows))
                         for rows in zip(*(m.rows for m in blocks)))
    assert block([blocks]) == got
    _assert_read([e for r in got.rows for e in r])
    with pytest.raises(ValueError):
        hstack(*blocks, zeros(blocks[0].nrows + 1, 1))


def _denominator(e) -> int:
    re, im = (e.re, e.im) if type(e) is GaussianRational else (e, 0)
    return lcm(Fraction(re).denominator, Fraction(im).denominator)


@settings(max_examples=150, deadline=None)
@given(product_operands())
def test_nonzeros_and_cleared_read_the_entries(ab):
    a, b = ab
    for m in (a, b, a @ b):
        entries = {(r, c): e for r, row in enumerate(m.rows) for c, e in enumerate(row)}
        assert support(m) == {rc for rc, e in entries.items() if e}
        den = lcm(*(_denominator(e) for e in entries.values()))
        assert cleared(m) == m.scaled(den)
        assert all(_denominator(e) == 1 for row in cleared(m).rows for e in row)


@st.composite
def gram_operands(draw) -> Matrix:
    """k x c matrices, c = 2, c = k or any c: the first c columns of an
    exact rotation, c unit columns that are seldom orthogonal, small
    rational entries, or one of these with a column turned by i."""
    k = draw(st.integers(1, 6))
    c = draw(st.sampled_from((min(2, k), k, draw(st.integers(1, k)))))
    rng = Random(draw(seeds))
    kind = draw(st.sampled_from(("rotation", "unit columns", "entries")))
    if kind == "rotation":
        m = submatrix(rotation(rng, k), 0, k, 0, c)
    elif kind == "unit columns":
        m = Matrix(zip(*(tuple(unit_vector(rng, k)) for _ in range(c))))
    else:
        m = draw(matrices(st.one_of(st.integers(-2, 2), ratios(3, 3)), k, c))
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        m = Matrix(tuple(gr(0, x) if col == j else x for col, x in enumerate(row))
                   for row in m.rows)
    return m


@settings(max_examples=150, deadline=None)
@given(gram_operands())
@example(Matrix([[1, 1], [0, 0]]))
@example(Matrix([[Fraction(5, 3), gr(0, Fraction(4, 3))],
                 [gr(0, Fraction(-4, 3)), Fraction(5, 3)]]))
def test_gram_pass_agrees_with_the_transpose_product(m):
    """The column dot products of the numerators decide m^T m = I for a real
    m, and a complex m is refused even where m^T m = I holds over C."""
    want = m.is_real() and m.transpose() @ m == identity(m.ncols)
    assert has_orthonormal_columns(m) is want
