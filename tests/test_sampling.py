from fractions import Fraction
from math import lcm
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.linalg import det, identity
from twodirac.sampling import (circle_point, deterministic_circle_points, givens, rotation,
                               unit_vector)
from twodirac.scalars import CirclePoint, UnitVector

from strategies import seeds


def givens_product(rng: Random, k: int):
    """The rotation as the product of dense ``givens`` matrices, drawing
    exactly what ``rotation`` draws."""
    out = identity(k)
    for _ in range(2 * k):
        i = rng.randrange(k)
        j = rng.randrange(k)
        if i != j:
            out = givens(k, i, j, circle_point(rng)) @ out
    return out


def test_rotation_is_the_product_of_its_givens_factors():
    for k in range(2, 8):
        for seed in range(60):
            rng, ref_rng = Random(seed), Random(seed)
            rot = rotation(rng, k)
            assert rot == givens_product(ref_rng, k)
            assert rng.random() == ref_rng.random()
        assert rot.transpose() @ rot == identity(k) and det(rot) == 1


def fraction_circle_point(rng: Random) -> tuple:
    """The point's (c, d) by Fraction arithmetic on t, drawing exactly what
    ``circle_point`` draws, each read as an int when integral."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
    t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    den = 1 + t * t
    c, d = (1 - t * t) / den, 2 * t / den
    if roll < 0.55:
        c, d = -c, -d
    return tuple(x.numerator if x.denominator == 1 else x for x in (c, d))


def test_circle_point_matches_the_fraction_formula():
    for seed in range(300):
        rng, ref_rng = Random(seed), Random(seed)
        p, want = circle_point(rng), fraction_circle_point(ref_rng)
        assert (p.c, p.d) == want
        # the same values in the same types, so reports render alike
        assert (type(p.c), type(p.d)) == tuple(map(type, want))
        assert rng.getstate() == ref_rng.getstate()
    assert deterministic_circle_points(5) == [
        CirclePoint((1 - f * f) / (1 + f * f), 2 * f / (1 + f * f))
        for f in (Fraction(t, 6) for t in range(1, 6))]


def fraction_unit_vector(rng: Random, n: int) -> tuple:
    """The inverse stereographic projection (2z, |z|^2 - 1) / (|z|^2 + 1) by
    Fraction arithmetic on z, drawing exactly what ``unit_vector`` draws,
    each component read as an int when integral."""
    if n == 1:
        return (rng.choice((-1, 1)),)
    z = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n - 1)]
    nz = sum(x * x for x in z)
    den = nz + 1
    v = [2 * x / den for x in z] + [(nz - 1) / den]
    rng.shuffle(v)
    return tuple(x.numerator if x.denominator == 1 else x
                 for x in (x if rng.random() < 0.5 else -x for x in v))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), seeds)
def test_unit_vector_matches_the_fraction_formula(n, seed):
    """The integer form gives the Fraction formula's values, read back by
    value in its types, as a UnitVector in lowest terms, drawn from two
    copies of one seeded generator that end in the same state."""
    rng, ref_rng = Random(seed), Random(seed)
    for _ in range(3):
        v, want = unit_vector(rng, n), fraction_unit_vector(ref_rng, n)
        assert type(v) is UnitVector and v == UnitVector(want)
        assert tuple(v) == want and list(map(type, v)) == list(map(type, want))
        assert v.e == lcm(*(Fraction(x).denominator for x in want))
        assert sum(x * x for x in v.w) == v.e ** 2
    assert rng.random() == ref_rng.random()
