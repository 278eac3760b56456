"""The hypothesis strategies the tests share.  Rationals are drawn numerator
first, at a fraction of the cost of hypothesis's fractions for the same values."""

from fractions import Fraction

from hypothesis import strategies as st

from twodirac.linalg import Matrix
from twodirac.scalars import gr


@st.composite
def rationals(draw, bound: int, max_den: int) -> Fraction:
    """Every p/q in [-bound, bound] with q <= max_den, drawn as q and then p:
    the values of ``fractions(-bound, bound, max_denominator=max_den)``."""
    q = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(-bound * q, bound * q)), q)


def ratios(num: int, max_den: int):
    """p/q for |p| <= num and 1 <= q <= max_den, Fraction(4, 2) among them."""
    return st.builds(Fraction, st.integers(-num, num), st.integers(1, max_den))


def gaussians(parts):
    """re + i im with both parts drawn from ``parts``."""
    return st.builds(gr, parts, parts)


# composites, not maps over st.lists: the mapped forms drew matrices about 25% slower
@st.composite
def vectors(draw, entries, n: int) -> tuple:
    """Tuples of n entries."""
    return tuple(draw(st.lists(entries, min_size=n, max_size=n)))


@st.composite
def matrices(draw, entries, rows: int, cols: int) -> Matrix:
    """rows x cols matrices of entries."""
    return Matrix(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows)))


seeds = st.integers(0, 2 ** 32 - 1)
small_ints = st.integers(-3, 3)
coordinates = st.one_of(st.integers(-9, 9), rationals(6, 7))
# the Levi bracket's bilinearity test draws these; shared so that their range is tested
levi_blocks = matrices(st.integers(-6, 6), 3, 2)
