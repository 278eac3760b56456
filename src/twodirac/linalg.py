"""Small exact linear-algebra kit.

``Matrix`` is an immutable dense matrix whose entries are rationals
(``int``/``fractions.Fraction``) or ``GaussianRational``.  Sums, negations
and scalings work entry by entry and never divide.

Every product (``@`` and ``apply``) goes through one kernel over Gaussian
integers: each operand is lowered once to integer ``(re, im)`` pairs with a
positive multiplier per row of the left operand and per column of the right
one, only nonzero terms are summed, and each entry is divided once by its
two multipliers.  An entry is a ``GaussianRational`` when either operand has
one, else an int when integral and a Fraction otherwise.

``rank``, ``rank_bareiss`` and ``det`` share the same lowering and one
fraction-free (Bareiss) elimination, so no rational normalization happens
inside the loop.  ``inverse`` is the adjugate over the determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence, Tuple

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
        return Matrix(_product(self.rows, zip(*other.rows)))

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError(f"shape mismatch {self.shape} applied to len {len(vec)}")
        return tuple(r[0] for r in _product(self.rows, (vec,)))

    def scaled(self, s) -> "Matrix":
        return Matrix(tuple(s * a for a in r) for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.rows))

    def adjoint(self) -> "Matrix":
        """Conjugate transpose."""
        return Matrix(tuple(a.conjugate() for a in col) for col in zip(*self.rows))

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


# -- exact kernels over Gaussian integers -------------------------------------

def _gauss_int_rows(rows: Iterable[Sequence]) -> Tuple[list, list, bool]:
    """Scale each row to Gaussian-integer pairs ``(re, im)``.

    Returns the integer rows, each row's multiplier (the least common
    denominator of its entries) and whether any entry is a
    ``GaussianRational``.  Scaling a row by a positive integer keeps the rank
    and multiplies the determinant by that integer.
    """
    out, mults = [], []
    gaussian = False
    for r in rows:
        pairs = []
        dens = set()
        for e in r:
            if type(e) is GaussianRational:
                gaussian = True
                re, im = e.re, e.im
                if type(im) is not int:
                    dens.add(im.denominator)
            else:
                re, im = e, 0
            if type(re) is not int:
                dens.add(re.denominator)
            pairs.append((re, im))
        mult = lcm(*dens)
        if dens:
            pairs = [(a.numerator * (mult // a.denominator),
                      b.numerator * (mult // b.denominator)) for a, b in pairs]
        out.append(pairs)
        mults.append(mult)
    return out, mults, gaussian


def _ratio(num: int, den: int) -> Rational:
    """``num / den`` as an int when it is integral, else as a Fraction."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _product(rows: Iterable[Sequence], cols: Iterable[Sequence]) -> list:
    """Rows of the product of the matrix with these rows and the matrix with
    these columns (the kernel the module docstring describes).

    Entry (i, j) is the integer sum over the nonzero terms of lowered row i
    and lowered column j, divided by the multipliers of row i and column j.
    """
    a, amults, a_gauss = _gauss_int_rows(rows)
    b, bmults, b_gauss = _gauss_int_rows(cols)
    gaussian = a_gauss or b_gauss
    width = len(b)
    # the right operand's nonzero entries, row by row: (column, re, im)
    b_rows = [[] for _ in b[0]]
    for j, col in enumerate(b):
        for k, (re, im) in enumerate(col):
            if re or im:
                b_rows[k].append((j, re, im))
    out = []
    for arow, am in zip(a, amults):
        dens = [am * bm for bm in bmults]
        if gaussian:
            acc_re = [0] * width
            acc_im = [0] * width
            for (ar, ai), brow in zip(arow, b_rows):
                if ar or ai:
                    for j, br, bi in brow:
                        acc_re[j] += ar * br - ai * bi
                        acc_im[j] += ar * bi + ai * br
            out.append(tuple(map(GaussianRational, map(_ratio, acc_re, dens),
                                 map(_ratio, acc_im, dens))))
        else:
            acc = [0] * width
            for (ar, _), brow in zip(arow, b_rows):
                if ar:
                    for j, br, _ in brow:
                        acc[j] += ar * br
            out.append(tuple(map(_ratio, acc, dens)))
    return out


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
    return _bareiss(_gauss_int_rows(m.rows)[0])[0]


def rank_bareiss(m: Matrix) -> int:
    """Exact rank of a GaussianRational matrix (the symbol-layer entry point)."""
    return _bareiss(_gauss_int_rows(m.rows)[0])[0]


def det(m: Matrix):
    """Exact determinant: a ``GaussianRational`` if any entry is one, else a
    ``Fraction``."""
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    rows, mults, gaussian = _gauss_int_rows(m.rows)
    rk, (re, im), sign = _bareiss(rows)
    if rk < m.nrows:
        re = im = 0
    scale = prod(mults)
    re, im = Fraction(sign * re, scale), Fraction(sign * im, scale)
    if gaussian:
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
