"""Dense word product: the test oracle for the spinor matrix of a
``twodirac.spin.SpinElement``.

The spinor matrix of a word v1..vk is the product of the letters' Clifford
matrices in word order.  Here each letter is the dense sum of v_a gamma_a
over the dense oracle gammas of ``reference_gammas``, and the letters are
multiplied by dense products, so it shares no route with the signed
permutation scatter it checks.
"""

from twodirac.linalg import Matrix, identity

import reference_gammas


def clifford_matrix(n: int, v) -> Matrix:
    """sum_a v_a gamma_a, entry by entry."""
    gs = reference_gammas.gammas(n)
    s = gs[0].nrows
    return Matrix(tuple(sum(x * g[i, j] for x, g in zip(v, gs)) for j in range(s))
                  for i in range(s))


def spinor_mat(n: int, word) -> Matrix:
    mat = identity(2 ** (n // 2))
    for v in word:
        mat = mat @ clifford_matrix(n, v)
    return mat
