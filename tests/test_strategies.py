"""The shared strategies draw inside their value sets and reach their extremes."""

from fractions import Fraction

from hypothesis import find, given
from hypothesis import strategies as st

from strategies import (coordinates, gaussians, levi_blocks, matrices, rationals, ratios,
                        seeds, small_ints, vectors)


@given(st.integers(1, 20), st.integers(1, 12), st.integers(1, 5), st.data())
def test_each_strategy_stays_inside_its_set(bound, max_den, n, data):
    q, r = data.draw(rationals(bound, max_den)), data.draw(ratios(bound, max_den))
    assert type(q) is Fraction and abs(q) <= bound and q.denominator <= max_den
    assert type(r) is Fraction and abs(r.numerator) <= bound and r.denominator <= max_den
    g, v = data.draw(gaussians(small_ints)), data.draw(vectors(small_ints, n))
    m, x = data.draw(matrices(small_ints, n, n + 1)), data.draw(levi_blocks)
    assert type(v) is tuple and len(v) == n
    assert {g.re, g.im, *v, *sum(m.rows, ())} <= set(range(-3, 4)) and m.shape == (n, n + 1)
    assert set(sum(x.rows, ())) <= set(range(-6, 7)) and x.shape == (3, 2)
    c = data.draw(coordinates)
    assert -9 <= c <= 9 if type(c) is int else abs(c) <= 6 and c.denominator <= 7
    assert 0 <= data.draw(seeds) < 2 ** 32


def test_each_strategy_reaches_its_extremes():
    for extreme in (lambda q: q == 4, lambda q: q == -4, lambda q: q.denominator == 5):
        find(rationals(4, 5), extreme)
    find(gaussians(rationals(4, 5)), lambda g: g.re and g.im)
    for bound in (6, -6):
        find(levi_blocks, lambda x: bound in sum(x.rows, ()))
