from fractions import Fraction
from random import Random

from twodirac.linalg import det, identity
from twodirac.sampling import circle_point, deterministic_circle_points, givens, rotation
from twodirac.scalars import CirclePoint


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


def fraction_circle_point(rng: Random) -> CirclePoint:
    """The point by Fraction arithmetic on t, drawing exactly what
    ``circle_point`` draws."""
    roll = rng.random()
    if roll < 0.1:
        return rng.choice((CirclePoint(1, 0), CirclePoint(-1, 0),
                           CirclePoint(0, 1), CirclePoint(0, -1)))
    t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    den = 1 + t * t
    p = CirclePoint((1 - t * t) / den, 2 * t / den)
    return -p if roll < 0.55 else p


def test_circle_point_matches_the_fraction_formula():
    for seed in range(300):
        rng, ref_rng = Random(seed), Random(seed)
        p, want = circle_point(rng), fraction_circle_point(ref_rng)
        assert (p.c, p.d) == (want.c, want.d)
        # the same values in the same types, so reports render alike
        assert (type(p.c), type(p.d)) == (type(want.c), type(want.d))
        assert rng.getstate() == ref_rng.getstate()
    assert deterministic_circle_points(5) == [
        CirclePoint((1 - f * f) / (1 + f * f), 2 * f / (1 + f * f))
        for f in (Fraction(t, 6) for t in range(1, 6))]
