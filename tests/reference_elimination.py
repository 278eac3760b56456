"""Field-elimination rank and determinant: the test oracle for the
fraction-free kernel in ``twodirac.linalg``.

Plain Gaussian elimination with division over the entries' own field
(``Fraction`` or ``GaussianRational``), kept deliberately naive so that it
shares no code with the kernel it checks.
"""

from fractions import Fraction

from twodirac.linalg import Matrix
from twodirac.scalars import GaussianRational


def _field_rows(m: Matrix) -> list:
    # ints must become Fractions before any division
    return [[Fraction(x) if isinstance(x, int) else x for x in r] for r in m.rows]


def rank(m: Matrix) -> int:
    rows = _field_rows(m)
    nr, nc = m.shape
    rk = 0
    for col in range(nc):
        piv = next((r for r in range(rk, nr) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        inv = 1 / prow[col]
        for r in range(rk + 1, nr):
            f = rows[r][col]
            if f:
                f = f * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rk += 1
        if rk == nr:
            break
    return rk


def det(m: Matrix):
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    n = m.nrows
    rows = _field_rows(m)
    one = GaussianRational(1) if isinstance(rows[0][0], GaussianRational) else Fraction(1)
    result = one
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return one - one
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            result = -result
        p = rows[col][col]
        result = result * p
        inv = one / p
        prow = rows[col]
        for r in range(col + 1, n):
            f = rows[r][col]
            if f:
                f = f * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
    return result
