from random import Random

from twodirac.linalg import det, identity
from twodirac.sampling import circle_point, givens, rotation


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
