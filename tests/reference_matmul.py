"""Sum-of-products matrix product: the test oracle for the Gaussian-integer
product kernel in ``twodirac.linalg``.

Each entry is ``sum(a * b)`` over a row and a column in the entries' own
arithmetic, with no lowering to integers, no zero skipping and no final
division, so it shares no code with the kernel it checks.
"""

from twodirac.linalg import Matrix


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    bcols = tuple(zip(*b.rows))
    return Matrix(tuple(sum(x * y for x, y in zip(row, col)) for col in bcols)
                  for row in a.rows)
