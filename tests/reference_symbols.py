"""The literal second symbol: the test oracle for ``twodirac.symbols.sigma2``.

sigma2 = [[-M2 M1, M1 M1], [-M2 M2, M1 M2]], each block a dense product of
the letters M_i = sum_a X_i[a] gamma_a over the dense oracle gammas of
``reference_gammas``.  It uses no Clifford relation and never reads the
signed-permutation storage, so it shares no route with the one scatter
product and the scalar blocks it checks.
"""

from twodirac.linalg import Matrix, block

import reference_words


def sigma2(n: int, x) -> Matrix:
    m1 = reference_words.clifford_matrix(n, x.x1)
    m2 = reference_words.clifford_matrix(n, x.x2)
    return block([[-(m2 @ m1), m1 @ m1],
                  [-(m2 @ m2), m1 @ m2]])
