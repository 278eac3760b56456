"""Tuple formulas for the Stiefel contact calculus: the test oracle for
``twodirac.stiefel``.

A frame is the pair of vectors (v1, v2), a tangent the pair (w1, w2) and the
complement a list of vectors; every quantity is a sum of scalar products
over the coordinates, with its own small vector algebra.  It never forms the
k x 2 matrices or the identities ``stiefel`` computes with, so it shares no
route with them beyond ``sampling.rotation`` and the scalar samplers.  Each
sampler draws the same random numbers in the same order as its matrix
counterpart.  ``is_oriented_plane`` is the spectral predicate o^T = -o,
o^3 = -o, tr(o^2) = -2 on an oriented plane's rows, the oracle for the
Plucker kernel ``linalg.is_unit_two_vector``.
"""

from twodirac.sampling import rational_fraction, rotation


def dot(u, v):
    assert len(u) == len(v)
    return sum(a * b for a, b in zip(u, v))


def lin(s, u, t, v):
    """s u + t v."""
    assert len(u) == len(v)
    return tuple(s * a + t * b for a, b in zip(u, v))


def random_frame_with_complement(n, rng):
    """(v1, v2, complement): the columns of one seeded rotation."""
    rot = rotation(rng, n + 2)
    return rot.col(0), rot.col(1), [rot.col(j) for j in range(2, n + 2)]


def reeb_field(v1, v2):
    return tuple(-a for a in v2), v1


def random_tangent(v1, v2, rng):
    k = len(v1)
    u1 = tuple(rational_fraction(rng) for _ in range(k))
    u2 = tuple(rational_fraction(rng) for _ in range(k))
    w1 = lin(1, u1, -dot(u1, v1), v1)
    w2 = lin(1, u2, -dot(u2, v2), v2)
    half = (dot(w1, v2) + dot(w2, v1)) / 2
    return lin(1, w1, -half, v2), lin(1, w2, -half, v1)


def random_contact_tangent(complement, rng):
    k = len(complement[0])

    def combo():
        out = (0,) * k
        for b in complement:
            out = lin(1, out, rng.randint(-5, 5), b)
        return out

    while True:
        w1, w2 = combo(), combo()
        if any(w1) or any(w2):
            return w1, w2


def contact_alpha(v2, w1):
    return -dot(w1, v2)


def levi_form_H(t1, t2):
    return dot(t2[0], t1[1]) - dot(t1[0], t2[1])


def tangent_coordinates(t, complement):
    """Rows (<b, w1>, <b, w2>) for each complement vector b."""
    return [[dot(b, t[0]), dot(b, t[1])] for b in complement]


def infinitesimal_rotation(v1, v2, t):
    """Rows of w1 v1^T - v1 w1^T + w2 v2^T - v2 w2^T + c (v1 v2^T - v2 v1^T)."""
    w1, w2 = t
    c = dot(w1, v2)
    k = len(v1)
    return [[w1[i] * v1[j] - v1[i] * w1[j] + w2[i] * v2[j] - v2[i] * w2[j]
             + c * (v1[i] * v2[j] - v2[i] * v1[j]) for j in range(k)]
            for i in range(k)]


def quotient_q(v1, v2):
    """Rows of the unit 2-vector v1 v2^T - v2 v1^T."""
    k = len(v1)
    return [[v1[i] * v2[j] - v2[i] * v1[j] for j in range(k)] for i in range(k)]


def times(a, b):
    """Rows of the product of two matrices given by their rows."""
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def is_oriented_plane(o):
    """o^T = -o, o^3 = -o and tr(o^2) = -2 for the rows o of a square matrix.

    A real skew o has eigenvalues 0 and pairs +-i lambda; o^3 = -o leaves
    lambda = 1 and then -tr(o^2) counts them, so the rows are the unit
    2-vector of an orthonormal pair.  It reads transposes, not adjoints, so
    it does not refuse a complex matrix.
    """
    k = len(o)
    if any(o[i][j] != -o[j][i] for i in range(k) for j in range(k)):
        return False
    o2 = times(o, o)
    return (times(o2, o) == [[-x for x in r] for r in o]
            and sum(o2[i][i] for i in range(k)) == -2)
