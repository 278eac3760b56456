"""Dense gamma matrices: the test oracle for ``twodirac.clifford``.

Builds the generators by the tensor-doubling recursion on dense matrices
(Kronecker products with the Pauli matrices, the chirality element as a
matrix product) and validates them by dense products, entry checks and
adjoints.  It never reads the signed-permutation storage, so it shares no
route with the build and validation it checks.
"""

from functools import lru_cache

from twodirac.clifford import CLIFFORD_SIGN
from twodirac.linalg import Matrix, zeros
from twodirac.scalars import gr

GR_ZERO, GR_ONE, GR_I = gr(0), gr(1), gr(0, 1)

SIGMA_X = Matrix([[0, 1], [1, 0]])
SIGMA_Y = Matrix([[GR_ZERO, -GR_I], [GR_I, GR_ZERO]])
SIGMA_Z = Matrix([[1, 0], [0, -1]])
UNIT_ENTRIES = (GR_ZERO, GR_ONE, -GR_ONE, GR_I, -GR_I)


def tensor(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(x * y for x in ra for y in rb)
                  for ra in a.rows for rb in b.rows)


def hermitian_gammas(n: int) -> list:
    if n == 2:
        return [SIGMA_X, SIGMA_Y]
    if n % 2 == 1:
        gs = hermitian_gammas(n - 1)
        m = (n - 1) // 2
        chirality = gs[0]
        for g in gs[1:]:
            chirality = chirality @ g
        # (-i)**m, cycling with period 4
        unit = (GR_ONE, -GR_I, -GR_ONE, GR_I)[m % 4]
        return gs + [chirality.scaled(unit)]
    gs = hermitian_gammas(n - 2)
    size = gs[0].nrows
    eye = Matrix([[1 if i == j else 0 for j in range(size)] for i in range(size)])
    return [tensor(g, SIGMA_Z) for g in gs] + [tensor(eye, SIGMA_X),
                                               tensor(eye, SIGMA_Y)]


@lru_cache(maxsize=None)
def gammas(n: int) -> tuple:
    """gamma_1..gamma_n as dense s x s matrices."""
    return tuple(g.scaled(GR_I) for g in hermitian_gammas(n))


def validate(n: int, s: int, gs) -> None:
    """AssertionError unless gs are n anti-hermitian generators of Cl(n) on
    C^s with entries in {0, +-1, +-i}."""
    if s != 2 ** (n // 2):
        raise AssertionError("spinor dimension mismatch")
    eye = Matrix([[1 if i == j else 0 for j in range(s)] for i in range(s)])
    want_sq = eye.scaled(CLIFFORD_SIGN)
    for a, ga in enumerate(gs):
        for e in (x for row in ga.rows for x in row):
            if e not in UNIT_ENTRIES:
                raise AssertionError(f"gamma_{a + 1} entry {e} outside 0, +-1, +-i")
        if ga.adjoint() != -ga:
            raise AssertionError(f"gamma_{a + 1} is not anti-hermitian")
        for b in range(a, n):
            gb = gs[b]
            anti = ga @ gb + gb @ ga
            want = want_sq.scaled(2) if a == b else zeros(s, s)
            if anti != want:
                raise AssertionError(f"gamma_{a + 1}, gamma_{b + 1} fail Clifford relation")
