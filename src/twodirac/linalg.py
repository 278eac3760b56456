"""Small exact linear-algebra kit.

``Matrix`` is an immutable dense matrix whose entries live in any exact field
implementing the usual arithmetic operators: here either rationals
(``int``/``fractions.Fraction``) or ``GaussianRational``.  Arithmetic on
matrices never divides, so integer-entried matrices are safe everywhere.

``rank``, ``rank_bareiss`` and ``det`` share one fraction-free (Bareiss)
elimination over Gaussian integers: each row is first scaled to integer
entries, so no rational normalization happens inside the loop.  ``inverse``
is the adjugate over the determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence, Tuple

from .scalars import GR_ONE, GR_ZERO, GaussianRational, Rational


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        rs = tuple(tuple(r) for r in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix must be non-empty")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise ValueError("ragged rows")
        self.rows = rs

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(a + b for a, b in zip(ra, rb))
                      for ra, rb in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(a - b for a, b in zip(ra, rb))
                      for ra, rb in zip(self.rows, other.rows))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(-a for a in r) for r in self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bcols = tuple(zip(*other.rows))
        return Matrix(tuple(sum(a * b for a, b in zip(row, col))
                            for col in bcols)
                      for row in self.rows)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError(f"shape mismatch {self.shape} applied to len {len(vec)}")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def scaled(self, s) -> "Matrix":
        return Matrix(tuple(s * a for a in r) for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def adjoint(self) -> "Matrix":
        """Conjugate transpose."""
        return Matrix(tuple(a.conjugate() for a in col) for col in zip(*self.rows))

    def map(self, fn: Callable) -> "Matrix":
        return Matrix(tuple(fn(a) for a in r) for r in self.rows)

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"


# -- constructors -----------------------------------------------------------

def qmat(rows: Iterable[Iterable[Rational]]) -> Matrix:
    """Matrix over rationals (entries kept as int/Fraction as given)."""
    return Matrix(rows)


def gmat(rows: Iterable[Iterable]) -> Matrix:
    """Matrix over GaussianRational, coercing rational entries."""
    return Matrix(tuple(x if isinstance(x, GaussianRational) else GaussianRational(x)
                        for x in r) for r in rows)


def identity_q(n: int) -> Matrix:
    return Matrix(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros_q(r: int, c: int) -> Matrix:
    return Matrix((0,) * c for _ in range(r))


def identity_g(n: int) -> Matrix:
    return Matrix(tuple(GR_ONE if i == j else GR_ZERO for j in range(n))
                  for i in range(n))


def zeros_g(r: int, c: int) -> Matrix:
    return Matrix((GR_ZERO,) * c for _ in range(r))


def hstack(*ms: Matrix) -> Matrix:
    if len({m.nrows for m in ms}) != 1:
        raise ValueError("hstack: row counts differ")
    return Matrix(tuple(x for m in ms for x in m.rows[i]) for i in range(ms[0].nrows))


def vstack(*ms: Matrix) -> Matrix:
    if len({m.ncols for m in ms}) != 1:
        raise ValueError("vstack: column counts differ")
    return Matrix(r for m in ms for r in m.rows)


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*(hstack(*row) for row in grid))


def submatrix(m: Matrix, r0: int, r1: int, c0: int, c1: int) -> Matrix:
    return Matrix(r[c0:c1] for r in m.rows[r0:r1])


# -- vectors ------------------------------------------------------------------

def vdot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("vdot: length mismatch")
    return sum(a * b for a, b in zip(u, v))


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(s, u: Sequence) -> tuple:
    return tuple(s * a for a in u)


def vneg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence) -> bool:
    return all(not a for a in u)


# -- exact elimination: one fraction-free kernel ------------------------------

def _gauss_int_rows(m: Matrix) -> Tuple[list, int]:
    """Scale each row to Gaussian-integer pairs ``(re, im)``.

    Returns the rows and the product of the row multipliers.  Scaling a row
    by a positive integer keeps the rank and multiplies the determinant by
    that integer.
    """
    rows = []
    scale = 1
    for r in m.rows:
        pairs = [(e.re, e.im) if isinstance(e, GaussianRational) else (e, 0)
                 for e in r]
        mult = lcm(*(x.denominator for pair in pairs for x in pair))
        rows.append([((a * mult).numerator, (b * mult).numerator)
                     for a, b in pairs])
        scale *= mult
    return rows, scale


def _bareiss(rows: list) -> Tuple[int, Tuple[int, int], int]:
    """Fraction-free elimination (Bareiss 1968) on mutable rows of int pairs.

    Returns the rank, the last pivot and the sign of the row permutation.
    After each pivot step every entry is a minor of the row-permuted matrix,
    so the division by the previous pivot is exact (Sylvester identity);
    column skipping for rank-deficient columns does not disturb this.  For a
    square matrix of full rank the last pivot is therefore the determinant
    of the row-permuted matrix.
    """
    nr = len(rows)
    nc = len(rows[0])
    rk = 0
    sign = 1
    pre, pim, pnrm = 1, 0, 1
    for col in range(nc):
        if rk == nr:
            break
        piv = None
        for r in range(rk, nr):
            a, b = rows[r][col]
            if a or b:
                piv = r
                break
        if piv is None:
            continue
        if piv != rk:
            rows[rk], rows[piv] = rows[piv], rows[rk]
            sign = -sign
        prow = rows[rk]
        pa, pb = prow[col]
        for r in range(rk + 1, nr):
            row = rows[r]
            ra, rb = row[col]
            for c in range(col + 1, nc):
                xa, xb = row[c]
                ya, yb = prow[c]
                ta = pa * xa - pb * xb - ra * ya + rb * yb
                tb = pa * xb + pb * xa - ra * yb - rb * ya
                row[c] = ((ta * pre + tb * pim) // pnrm,
                          (tb * pre - ta * pim) // pnrm)
            row[col] = (0, 0)
        pre, pim = pa, pb
        pnrm = pa * pa + pb * pb
        rk += 1
    return rk, (pre, pim), sign


def rank(m: Matrix) -> int:
    """Exact rank of a matrix with int, Fraction or GaussianRational entries."""
    return _bareiss(_gauss_int_rows(m)[0])[0]


def rank_bareiss(m: Matrix) -> int:
    """Exact rank of a GaussianRational matrix (the symbol-layer entry point)."""
    return _bareiss(_gauss_int_rows(m)[0])[0]


def det(m: Matrix):
    """Exact determinant: a ``GaussianRational`` if any entry is one, else a
    ``Fraction``."""
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    rows, scale = _gauss_int_rows(m)
    rk, (re, im), sign = _bareiss(rows)
    if rk < m.nrows:
        re = im = 0
    re, im = Fraction(sign * re, scale), Fraction(sign * im, scale)
    if any(isinstance(e, GaussianRational) for r in m.rows for e in r):
        return GaussianRational(re, im)
    return re


def inverse(m: Matrix) -> Matrix:
    """Inverse as the adjugate over the determinant.

    Costs n^2 determinants of order n - 1; callers invert only 2 x 2 blocks.
    """
    d = det(m)
    if not d:
        raise ValueError("matrix is singular")
    n = m.nrows
    if n == 1:
        return Matrix([[1 / d]])

    def minor(i: int, j: int) -> Matrix:
        return Matrix(r[:j] + r[j + 1:] for k, r in enumerate(m.rows) if k != i)

    return Matrix(tuple((-1) ** (i + j) * det(minor(j, i)) / d for j in range(n))
                  for i in range(n))
