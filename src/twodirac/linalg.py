"""Small exact linear-algebra kit.

``Matrix`` is an immutable dense matrix over the Gaussian rationals, stored
once in lowest terms: integer numerators of the real parts and of the
imaginary parts (``None`` when all are zero) over one positive denominator,
so ``==`` compares the storage.  Only this module reads it.
Entries become scalars only when read (``rows``, ``[i, j]``, ``col``,
``apply``, ``det``), by one rule on the value alone: a
``GaussianRational`` exactly when the imaginary part is nonzero, else an int
when integral and a ``Fraction`` when not.

Sums, differences, stacks, scaling and products work on the numerators: a
sum or difference is one pass, and a product is one integer kernel, summing
only nonzero terms, over the parts that are not zero.
A product with a sum of signed permutations, m @ sum_k c_k P_k (a Clifford
matrix, a symbol's letters, the flat operator's turned blocks) with rational
c_k, is a second kernel, ``times_signed_perms``: it scatters m's numerators
to their permuted places, multiplying only integers, and forms no dense
factor.  A product with a whole spin word of such sums is ``times_word``,
and the rotation of the word, the product of its reflections, is
``reflections``; both run on columns packed into single integers (Kronecker
substitution), one digit per row, in a digit width that no entry of the
result can overflow, and unpack once at the end.  Two kernels only move
or drop numerators: ``masked`` zeroes the entries where a 0/1 mask is zero,
and ``mirrored`` forms -P m^T P^T for a square m and a permutation matrix P,
whose entry (r, c) is -m[perm[c]][perm[r]].
``is_unit_two_vector`` reads the numerators once to certify an oriented
plane's unit 2-vector, by one pivot Plucker identity and a norm, with no
product; ``has_orthonormal_columns`` certifies m^T m = I from the column
dot products of the numerators; ``frobenius_sq`` sums the squared
numerators once, and ``scalar_of`` reads the c of a scalar matrix c I.
``support`` reads the positions of a matrix's nonzero entries off its
numerators once, and ``cleared`` is m times its common denominator, the
matrix of its integer numerators.
``row_map`` is the row-side partner of the scatter: S @ m for an integer S
given row by row as (source row, weight) lists, combining m's numerator
rows without forming S (the flat operator's derivatives and merges of
equal monomials).
``intertwines`` decides S g_alpha = (sum_beta r[beta, alpha] g_beta) S for
every alpha, for signed permutations g_a and a real n x n matrix r
(``spin.rho_n``'s certificate), on S's numerators alone: it gathers the
column moves S g_alpha and the row moves g_beta S once each and compares the
n identities at once, packed one alpha to a digit in a base so large that
no digit carries.

``rank`` (also ``rank_bareiss``) eliminates over F_p, p = 10**9 + 9, with i
sent to a square root of -1 mod p.  That reduction is a ring map, so the
rank mod p is a lower bound; where it meets the shape bound it is the
rank.  A shortfall mod p proves nothing, and then the fraction-free
(Bareiss) elimination on the numerators decides.  ``det`` runs the Bareiss
elimination; ``inverse`` is the adjugate over the determinant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import add, itemgetter, lshift, mul, neg, or_, sub
from typing import Iterable, Optional, Sequence, Tuple

from .scalars import GaussianRational

IntRows = Tuple[Tuple[int, ...], ...]


class Matrix:
    __slots__ = ("_re", "_im", "_den", "_rows")

    def __new__(cls, rows: Iterable[Iterable]) -> "Matrix":
        rs = tuple(tuple(r) for r in rows)
        if not rs or not rs[0]:
            raise ValueError("matrix must be non-empty")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise ValueError("ragged rows")
        if all(type(e) is int for r in rs for e in r):
            return _stored(rs, None, 1)
        parts = [[(e.re, e.im) if type(e) is GaussianRational else (e, 0) for e in r]
                 for r in rs]
        den = lcm(*{c.denominator for r in parts for e in r for c in e})

        def numerators(k: int) -> IntRows:
            return tuple(tuple(e[k].numerator * (den // e[k].denominator) for e in r)
                         for r in parts)

        return _stored(numerators(0), numerators(1), den)

    @property
    def rows(self) -> tuple:
        """The entries, read once by the module's rule and kept."""
        if self._rows is None:
            self._rows = tuple(tuple(_scalar(x, y, self._den) for x, y in zip(r, i))
                               for r, i in zip(self._re, _imag(self)))
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._re)

    @property
    def ncols(self) -> int:
        return len(self._re[0])

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other for sign = +-1, in one pass over the numerators."""
        if self.shape != other.shape:
            op = "+" if sign == 1 else "-"
            raise ValueError(f"shape mismatch {self.shape} {op} {other.shape}")
        den = lcm(self._den, other._den)
        ka, kb = den // self._den, sign * (den // other._den)
        im = None
        if self._im is not None or other._im is not None:
            im = _lin(_imag(self), ka, _imag(other), kb)
        return _stored(_lin(self._re, ka, other._re, kb), im, den)

    def __neg__(self) -> "Matrix":
        return _stored(_times(self._re, -1), self._im and _times(self._im, -1), self._den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return _product(self, other)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError(f"shape mismatch {self.shape} applied to len {len(vec)}")
        return _product(self, Matrix((x,) for x in vec)).col(0)

    def scaled(self, s) -> "Matrix":
        """self times the scalar s = (a + b i) / e, in one pass over the
        numerators: (x + y i)(a + b i) = (a x - b y) + (a y + b x) i."""
        (a, b), e = _numerators(s)
        re, im = self._re, self._im
        if not b:
            return _stored(_times(re, a), im and _times(im, a), self._den * e)
        im = _imag(self)
        return _stored(_lin(re, a, im, -b), _lin(im, a, re, b), self._den * e)

    def transpose(self) -> "Matrix":
        im = self._im
        return _stored(tuple(zip(*self._re)), im and tuple(zip(*im)), self._den)

    def adjoint(self) -> "Matrix":
        """Conjugate transpose."""
        t = self.transpose()
        return _stored(t._re, t._im and _times(t._im, -1), t._den)

    def is_real(self) -> bool:
        """No nonzero imaginary part: one test on the storage."""
        return self._im is None

    def is_zero(self) -> bool:
        return self._im is None and not any(map(any, self._re))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self._den, self._re, self._im) == (other._den, other._re, other._im)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"


# -- storage ----------------------------------------------------------------------

def _stored(re: IntRows, im: Optional[IntRows], den: int) -> Matrix:
    """Numerators ``re``, ``im`` (None for zeros) over ``den > 0``, in lowest terms."""
    if not re or not re[0]:
        raise ValueError("matrix must be non-empty")
    if im is not None and not any(map(any, im)):
        im = None
    if den != 1:
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im or ()))
        if g != 1:
            re = tuple(tuple(x // g for x in r) for r in re)
            im = im and tuple(tuple(x // g for x in r) for r in im)
            den //= g
    m = object.__new__(Matrix)
    # the rows of a real integer matrix are its numerators
    m._re, m._im, m._den, m._rows = re, im, den, re if den == 1 and im is None else None
    return m


def _imag(m: Matrix) -> IntRows:
    """The imaginary numerators, zeros when the matrix is real."""
    return m._im or ((0,) * m.ncols,) * m.nrows


def _times(rows: IntRows, k: int) -> IntRows:
    if k == 1:
        return rows
    if k == -1:  # negation and the adjoint's conjugation, with no Python step per entry
        return tuple(tuple(map(neg, r)) for r in rows)
    return tuple(tuple(k * x for x in r) for r in rows)


def _lin(a: IntRows, ka: int, b: IntRows, kb: int) -> IntRows:
    """ka a + kb b, entrywise."""
    if ka == 1 and kb in (1, -1):
        # sums and differences over one denominator, the common case: map
        # runs the loop without a Python-level step per entry
        op = add if kb == 1 else sub
        return tuple(tuple(map(op, ra, rb)) for ra, rb in zip(a, b))
    return tuple(tuple(ka * x + kb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _numerators(c) -> Tuple[Tuple[int, int], int]:
    """An int, ``Fraction`` or ``GaussianRational`` c as ((a, b), e), c = (a + b i) / e."""
    re, im = (c.re, c.im) if type(c) is GaussianRational else (c, 0)
    e = lcm(re.denominator, im.denominator)
    return (re.numerator * (e // re.denominator), im.numerator * (e // im.denominator)), e


def _scalar(re: int, im: int, den: int):
    """``(re + im i) / den`` read by the module's rule."""
    if im:
        # a GaussianRational keeps an integral component as an int
        return GaussianRational(Fraction(re, den), Fraction(im, den))
    q, r = divmod(re, den)
    return Fraction(re, den) if r else q


# -- constructors -----------------------------------------------------------

@lru_cache(maxsize=None)
def identity(n: int) -> Matrix:
    """The n x n identity, built once per n (a Matrix is immutable)."""
    return Matrix(tuple(int(i == j) for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> Matrix:
    return Matrix((0,) * c for _ in range(r))


def _stack(ms: Sequence[Matrix], join) -> Matrix:
    """The blocks' numerators brought over their common denominator and
    joined by ``join``, which takes one numerator tuple per block."""
    den = lcm(*(m._den for m in ms))
    im = None
    if any(m._im is not None for m in ms):
        im = join([_times(_imag(m), den // m._den) for m in ms])
    return _stored(join([_times(m._re, den // m._den) for m in ms]), im, den)


def _join_rows(parts: Sequence[IntRows]) -> IntRows:
    return tuple(map(tuple, map(chain.from_iterable, zip(*parts))))


def _join_cols(parts: Sequence[IntRows]) -> IntRows:
    return tuple(chain.from_iterable(parts))


def hstack(*ms: Matrix) -> Matrix:
    """The blocks side by side: each row is the concatenation of the blocks'
    rows, over their common denominator."""
    if len({m.nrows for m in ms}) != 1:
        raise ValueError("hstack: row counts differ")
    return _stack(ms, _join_rows)


def vstack(*ms: Matrix) -> Matrix:
    """The blocks one above the other, over their common denominator."""
    if len({m.ncols for m in ms}) != 1:
        raise ValueError("vstack: column counts differ")
    return _stack(ms, _join_cols)


def block(grid: Sequence[Sequence[Matrix]]) -> Matrix:
    return vstack(*(hstack(*row) for row in grid))


def submatrix(m: Matrix, r0: int, r1: int, c0: int, c1: int) -> Matrix:
    im = m._im
    return _stored(tuple(r[c0:c1] for r in m._re[r0:r1]),
                   im and tuple(r[c0:c1] for r in im[r0:r1]), m._den)


def cleared(m: Matrix) -> Matrix:
    """m times its common denominator: the matrix of its integer (Gaussian
    integer) numerators, formed without a pass over the entries."""
    return _stored(m._re, m._im, 1)


def support(m: Matrix) -> set:
    """The positions (r, c) of m's nonzero entries: those whose real or
    imaginary numerator is nonzero.  No entry is read back, and a zero row
    is skipped whole."""
    cols = range(m.ncols)
    if m._im is None:
        return {(r, c) for r, row in enumerate(m._re) if any(row)
                for c in compress(cols, row)}
    return {(r, c) for r, (row, irow) in enumerate(zip(m._re, m._im))
            if any(row) or any(irow) for c in compress(cols, map(or_, row, irow))}


def masked(m: Matrix, mask: Matrix) -> Matrix:
    """m with zeros wherever the 0/1 matrix ``mask`` is zero."""
    if m.shape != mask.shape:
        raise ValueError(f"shape mismatch {m.shape} masked by {mask.shape}")
    if mask._den != 1 or mask._im is not None or {*chain.from_iterable(mask._re)} - {0, 1}:
        raise ValueError("mask must be a 0/1 matrix")

    def keep(rows: IntRows) -> IntRows:
        return tuple(tuple(map(mul, r, kr)) for r, kr in zip(rows, mask._re))

    return _stored(keep(m._re), m._im and keep(m._im), m._den)


def mirrored(m: Matrix, perm: Sequence[int]) -> Matrix:
    """-P m^T P^T for a square m and the permutation matrix P with
    P[r][perm[r]] = 1: entry (r, c) is -m[perm[c]][perm[r]].  For an
    involution P^T = P."""
    if m.nrows != m.ncols or sorted(perm) != list(range(m.ncols)):
        raise ValueError(f"{tuple(perm)} is not a permutation of the indices "
                         f"of a square matrix; got shape {m.shape}")

    def mirror(rows: IntRows) -> IntRows:
        # cols[j][c] = m[perm[c]][j]
        cols = tuple(zip(*[rows[p] for p in perm]))
        return tuple(tuple(map(neg, cols[q])) for q in perm)

    return _stored(mirror(m._re), m._im and mirror(m._im), m._den)


def is_unit_two_vector(m: Matrix) -> bool:
    """Whether m = e1 e2^T - e2 e1^T for an orthonormal pair (e1, e2), the
    unit 2-vector of an oriented plane, by one pivot Plucker identity.

    With o = m's integer numerators over the denominator e, the test is:
    m is real and skew; a pivot exists, the first o_pq != 0 with p < q;
    o_pq o_ij = o_ip o_jq - o_iq o_jp for all i < j; and
    sum_{i<j} o_ij^2 = e^2.  The common factor e^2 cancels from the
    identity, so it holds for m's entries exactly when for the numerators.

    Why this is the unit 2-vector of an orthonormal pair: both sides of the
    identity are skew in (i, j), so it holds for all i, j and reads
    o_pq o = u v^T - v u^T for the columns u = o[:, p] and v = o[:, q].
    Hence o = (u ^ v) / o_pq, and u, v are independent (their rows p and q
    are (0, o_pq) and (-o_pq, 0)).  An orthonormal basis (e1, e2) of their
    span gives m = lambda e1 ^ e2 for a real lambda, and
    sum_{i<j} m_ij^2 = lambda^2, so the norm test leaves lambda = +-1; swap
    e1 and e2 for -1.  Conversely e1 ^ e2 is skew and nonzero, so it has a
    pivot, every decomposable 2-vector satisfies the three-term Plucker
    relations (of which the identity is the one through the pivot), and
    its squared norm is |e1|^2 |e2|^2 - <e1, e2>^2 = 1.  On real matrices
    this is the predicate o^T = -o, o^3 = -o, tr(o^2) = -2; a complex
    matrix is refused.  O(k^2) integer operations, no product.
    """
    o, k = m._re, m.nrows
    if m._im is not None or m.ncols != k:
        return False
    if any(a != -b for r, c in zip(o, zip(*o)) for a, b in zip(r, c)):
        return False
    pivot = next(((p, q) for p, r in enumerate(o) for q in range(p + 1, k) if r[q]),
                 None)
    if pivot is None:
        return False
    p, q = pivot
    w = o[p][q]
    u = [r[p] for r in o]
    v = [r[q] for r in o]
    for i, r in enumerate(o):
        ui, vi = u[i], v[i]
        for j in range(i + 1, k):
            if w * r[j] != ui * v[j] - vi * u[j]:
                return False
    return sum(x * x for r in o for x in r) == 2 * m._den ** 2


def scalar_of(m: Matrix):
    """The scalar c with m = c I, read by the module's rule, or None when m
    is not a scalar matrix: one scaling of the identity and one comparison
    of the stored numerators."""
    if m.nrows != m.ncols:
        return None
    c = _scalar(m._re[0][0], m._im[0][0] if m._im else 0, m._den)
    return c if m == identity(m.nrows).scaled(c) else None


def frobenius_sq(m: Matrix):
    """The squared Frobenius norm sum |m_ij|^2, read by the module's rule:
    one pass over the numerators, over the squared denominator."""
    total = sum(x * x for r in chain(m._re, m._im or ()) for x in r)
    return _scalar(total, 0, m._den ** 2)


# -- vectors ------------------------------------------------------------------

def vdot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("vdot: length mismatch")
    return sum(a * b for a, b in zip(u, v))


def is_zero_vec(u: Sequence) -> bool:
    return all(not a for a in u)


# -- exact kernels over Gaussian integers -------------------------------------

def _mul(a: IntRows, b: IntRows) -> IntRows:
    """The integer product a b, summing only the nonzero terms."""
    width = len(b[0])
    # b's nonzero entries, row by row: (column, value)
    b_rows = [[(j, y) for j, y in enumerate(r) if y] for r in b]
    out = []
    for arow in a:
        acc = [0] * width
        for x, brow in zip(arow, b_rows):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _product(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over the product of the denominators: (A + iB)(C + iD) is
    AC - BD + i(AD + BC), and a zero imaginary part skips its products."""
    ar, ai, br, bi = a._re, a._im, b._re, b._im
    re, im = _mul(ar, br), None
    if ai is not None:
        im = _mul(ai, br)
        if bi is not None:
            re = _lin(re, 1, _mul(ai, bi), -1)
    if bi is not None:
        im = _mul(ar, bi) if im is None else _lin(im, 1, _mul(ar, bi), 1)
    return _stored(re, im, a._den * b._den)


def times_signed_perms(m: Matrix, terms: Iterable[Tuple[object, Sequence[int], Sequence[int]]]
                       ) -> Matrix:
    """m @ sum_k c_k P_k for rational scalars c_k and signed permutations P_k.

    Each term is ``(c_k, cols, phases)``: row j of P_k has the single entry
    ``i**phases[j]`` in column ``cols[j]`` (any integer exponent, negative
    ones included).  So column j of m moves to column ``cols[j]``, turned by
    that power of i and multiplied by c_k.  A turn by i**p moves an entry's
    real numerator x to the real part for even p and to the imaginary part
    for odd p, negated when p & 2, and its imaginary numerator as x at
    p + 1.  The moves are built once per call, per source column, as
    (target, signed coefficient) for both numerators, target t < w being the
    real part of column t and w + t its imaginary part (m has width w), with
    each c_k over the coefficients' common denominator.  So a moved entry
    costs one multiplication on a real m and two on a complex one.  Zero
    entries and terms are skipped, and the sum is stored once over m's
    denominator times the common one.
    """
    parts = [(c.numerator, c.denominator, cols, phases) for c, cols, phases in terms if c]
    den = lcm(*(e for _, e, _, _ in parts))
    w = m.ncols
    moves = [[] for _ in range(w)]
    for x, e, cols, phases in parts:
        x *= den // e
        for mv, t, p in zip(moves, cols, phases):
            q = p + 1
            mv.append((t + w * (p & 1), -x if p & 2 else x,
                       t + w * (q & 1), -x if q & 2 else x))
    out_re, out_im = [], []
    for row_re, row_im in zip(m._re, m._im or repeat(None)):
        acc = [0] * (2 * w)
        if row_im is None:
            for x, mv in zip(row_re, moves):
                if x:
                    for t, a, _, _ in mv:
                        acc[t] += a * x
        else:
            for x, y, mv in zip(row_re, row_im, moves):
                if x or y:
                    for t, a, u, b in mv:
                        acc[t] += a * x
                        acc[u] += b * y
        out_re.append(tuple(acc[:w]))
        out_im.append(tuple(acc[w:]))
    return _stored(tuple(out_re), tuple(out_im), m._den * den)


# (source part, sign) of the real and the imaginary numerator of
# (x + y i) i**k, part 0 being x and part 1 being y
_TURNS = (((0, 1), (1, 1)), ((1, -1), (0, 1)), ((0, -1), (1, -1)), ((1, 1), (0, -1)))


@lru_cache(maxsize=None)
def _intertwining_spots(cols: Tuple[Tuple[int, ...], ...],
                        phases: Tuple[Tuple[int, ...], ...]) -> tuple:
    """Gather tables for the signed permutations g_a of size s (row i has
    i**phases[a][i] in column cols[a][i]), one (left, right) pair per a.

    They index the signed flat numerators of an s x s matrix S: its s^2
    real numerators row by row, its s^2 imaginary ones, then the negatives of
    all 2 s^2.  ``left`` gathers the flat numerators of S g_a, whose column
    cols[a][j] is column j of S turned by phases[a][j]; ``right`` gathers
    those of g_a S, whose row i is row cols[a][i] of S turned by
    phases[a][i]."""
    s = len(cols[0])
    size = s * s

    def spot(part: int, row: int, col: int, turn: int) -> int:
        src, sign = _TURNS[turn][part]
        return src * size + row * s + col + (0 if sign == 1 else 2 * size)

    cells = [(part, i, k) for part in (0, 1) for i in range(s) for k in range(s)]
    tables = []
    for ca, pa in zip(cols, phases):
        source = [0] * s
        for j, c in enumerate(ca):
            source[c] = j
        tables.append((tuple(spot(p, i, source[k], pa[source[k]]) for p, i, k in cells),
                       tuple(spot(p, ca[i], k, pa[i]) for p, i, k in cells)))
    return tuple(tables)


def intertwines(m: Matrix, cols: Sequence[Sequence[int]], phases: Sequence[Sequence[int]],
                r: Matrix) -> bool:
    """Whether m g_alpha = (sum_beta r[beta, alpha] g_beta) m for every alpha,
    for the n signed permutations g_a of size s (row i of g_a has
    i**phases[a][i] in column cols[a][i]), an s x s matrix m and a real
    n x n matrix r; a complex r is refused.

    Decided on the integer numerators, with no Matrix formed.  Over m's
    denominator, with r = N / e for integer N, the identity is
    e L_alpha = sum_beta N[beta, alpha] G_beta on the flat numerators, where
    L_alpha (of m g_alpha) and G_beta (of g_beta m) only move and turn m's
    numerators.  The n identities are compared at once, packed in base
    B = 2**k: entry t of the left side is sum_alpha e L_alpha[t] B**alpha
    and of the right side sum_beta G_beta[t] Q_beta, with
    Q_beta = sum_alpha N[beta, alpha] B**alpha, one weighted gather per
    generator on each side.  With X the largest numerator of m and C the
    largest column sum of |N|, no entry of either side exceeds
    max(e, C) X < B / 2, so two packed entries agree only when every
    alpha's entries do: a nonzero difference d of two such entries has
    digits |d_alpha| < B, and its lowest nonzero digit would have to be a
    multiple of B."""
    n, s = len(cols), m.nrows
    if m.ncols != s or r.shape != (n, n) or any(len(c) != s for c in cols):
        raise ValueError(f"shape mismatch: {n} generators, m {m.shape}, r {r.shape}")
    if r._im is not None:
        return False
    tables = _intertwining_spots(tuple(map(tuple, cols)), tuple(map(tuple, phases)))
    flat = (*chain.from_iterable(m._re), *chain.from_iterable(_imag(m)))
    signed = flat + tuple(map(neg, flat))
    e, num = r._den, r._re
    largest = max(e, *(sum(map(abs, col)) for col in zip(*num))) * max(map(abs, flat))
    k = largest.bit_length() + 1
    lhs = rhs = (0,) * len(flat)
    # generator a is alpha on the left and beta on the right
    for a, (row, (left, right)) in enumerate(zip(num, tables)):
        weight = e << (a * k)
        lhs = tuple(map(add, lhs, map(weight.__mul__, map(signed.__getitem__, left))))
        weight = sum(x << (alpha * k) for alpha, x in enumerate(row))
        rhs = tuple(map(add, rhs, map(weight.__mul__, map(signed.__getitem__, right))))
    return lhs == rhs


def _packing_width(bound: int) -> int:
    """The least digit width k with bound < 2**(k - 1): a signed digit of
    absolute value at most ``bound`` fits in k bits."""
    return bound.bit_length() + 1


def _pack(digits: Iterable[int], k: int) -> int:
    """sum_r digits[r] 2**(k r), the digits signed and lowest first."""
    return sum(map(lshift, digits, count(0, k)))


def _unpack(packed: Sequence[int], k: int, size: int) -> list:
    """The ``size`` signed digits of each packed integer, lowest first, for
    digits d with |d| < 2**(k - 1).

    Adding 2**(k - 1) to every digit puts each in [0, 2**k), so the digits
    of the offset integer are its k-bit fields, with no borrow between
    them.  Digits in that range are unique, so they are the ones the
    integer was formed from, however it was formed."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    offset = half * ((1 << (k * size)) - 1) // mask  # sum_r 2**(k - 1) 2**(k r)
    shifts = range(0, k * size, k)
    return [tuple([((q >> r) & mask) - half for r in shifts])
            for q in [p + offset for p in packed]]


@lru_cache(maxsize=None)
def _column_moves(cols: Tuple[Tuple[int, ...], ...],
                  phases: Tuple[Tuple[int, ...], ...]) -> tuple:
    """One gather per signed permutation g_a of size s (row j has
    i**phases[a][j] in column cols[a][j]), from the signed packed columns of
    a matrix m to the packed columns of m g_a.

    The signed packed columns are the real parts of m's s columns, their
    imaginary parts, then the negatives of all 2 s; the packed columns of
    m g_a are its real parts, then its imaginary parts.  Column j of m goes
    to column cols[a][j], and the turn by i**phases[a][j] picks the part and
    the sign that land in each of its two slots."""
    s = len(cols[0])
    gathers = []
    for ca, pa in zip(cols, phases):
        spots = [0] * (2 * s)
        for j, (t, p) in enumerate(zip(ca, pa)):
            for part in (0, 1):
                src, sign = _TURNS[p % 4][part]
                spots[part * s + t] = src * s + j + (0 if sign == 1 else 2 * s)
        gathers.append(itemgetter(*spots))
    return tuple(gathers)


def times_word(m: Matrix, cols: Sequence[Sequence[int]], phases: Sequence[Sequence[int]],
               words: Sequence[Sequence[int]], den: int) -> Matrix:
    """m @ prod_l (sum_a w_la g_a) / den, the factors in the order of
    ``words``, for integer vectors w_l, an integer den > 0 and the n signed
    permutations g_a of size s (row j of g_a has i**phases[a][j] in column
    cols[a][j]).

    The real and the imaginary numerators of each column of m are packed
    once into one integer each, a row to a signed k-bit digit.  A factor
    then costs, for each generator with w_la != 0, one gather of the 2 s
    packed columns and as many big-integer multiply-adds: column t of
    m g_a is column j of m, for the j that g_a moves to t, turned by a power
    of i, which only picks a part and a sign (``_column_moves``).  Packing
    is linear, so the result's packed columns carry its numerators as
    digits.  With M the largest numerator of m, no numerator of the result
    exceeds M prod_l sum_a |w_la| in absolute value (each factor adds at
    most sum_a |w_la| entries of the previous one per entry), and k is
    chosen above twice that, so no digit carries and one unpack reads them.
    The result is stored over m's denominator times den.
    """
    n, s = len(cols), m.ncols
    if any(len(c) != s for c in cols) or any(len(w) != n for w in words):
        raise ValueError(f"shape mismatch: {n} generators of size "
                         f"{tuple(map(len, cols))}, m {m.shape}, "
                         f"words of length {tuple(map(len, words))}")
    re, im = m._re, _imag(m)
    largest = max(map(abs, chain(chain.from_iterable(re), chain.from_iterable(im))))
    for w in words:
        largest *= sum(map(abs, w))
    k = _packing_width(largest)
    gathers = _column_moves(tuple(map(tuple, cols)), tuple(map(tuple, phases)))
    packed = [_pack(c, k) for c in chain(zip(*re), zip(*im))]
    zero = [0] * (2 * s)
    for w in words:
        signed = packed + list(map(neg, packed))
        packed = zero
        for x, gather in zip(w, gathers):
            if x:
                packed = list(map(add, packed, map(x.__mul__, gather(signed))))
    out = _unpack(packed, k, m.nrows)
    return _stored(tuple(zip(*out[:s])), tuple(zip(*out[s:])), m._den * den)


def reflections(letters: Sequence[Tuple[Sequence[int], int]], n: int) -> Matrix:
    """The product of the reflections 2 v v^T - I over the letters v = p / e,
    in their order, for integer vectors p of length n and integers e > 0
    with sum p_a^2 = e^2.

    The running product R is kept as integer numerators over one
    denominator, one packed integer per column, a row to a signed k-bit
    digit.  R (2 v v^T - I) is (2 (R p) p^T - e^2 R) / e^2, so a letter
    forms R p = sum_a p_a R_a once and then sets each column
    R_j <- 2 p_j (R p) - e^2 R_j: 3 n big-integer multiplications, and no
    reflection matrix.  Each letter multiplies the largest numerator by at
    most 2 ||p||_1^2 + e^2, starting from 1, and k is chosen above twice
    the product of those factors, so one unpack reads the rows.
    """
    bound = 1
    for p, e in letters:
        if len(p) != n:
            raise ValueError(f"letter of length {len(p)} != n = {n}")
        bound *= 2 * sum(map(abs, p)) ** 2 + e * e
    k = _packing_width(bound)
    packed = [1 << (k * j) for j in range(n)]
    den = 1
    for p, e in letters:
        e2 = e * e
        moved = 2 * sum(map(mul, p, packed))
        packed = list(map(sub, map(moved.__mul__, p), map(e2.__mul__, packed)))
        den *= e2
    return _stored(tuple(zip(*_unpack(packed, k, n))), None, den)


def has_orthonormal_columns(m: Matrix) -> bool:
    """Whether m is real with m^T m = I, from the column dot products of its
    numerators: over the denominator e, each column's squared norm is e^2
    and each pair of columns is orthogonal.  A complex matrix is refused.
    O(c^2 r) integer operations for c columns of r rows, and no transpose,
    product or identity is formed."""
    if m._im is not None:
        return False
    e2 = m._den ** 2
    cols = tuple(zip(*m._re))
    for i, u in enumerate(cols):
        if sum(map(mul, u, u)) != e2 or any(sum(map(mul, u, v)) for v in cols[i + 1:]):
            return False
    return True


def row_map(m: Matrix, rows: Sequence[Sequence[Tuple[int, int]]]) -> Matrix:
    """S @ m for the integer matrix S given row by row: row r of S lists the
    ``(source row, weight)`` pairs of its nonzero entries, so row r of the
    result is sum weight * m[source], and an empty list is a zero row.  It
    combines m's numerator rows and forms no dense S."""
    zero = (0,) * m.ncols

    def combine(num: IntRows) -> IntRows:
        out = []
        for terms in rows:
            if len(terms) == 1 and terms[0][1] == 1:  # a moved row keeps its tuple
                out.append(num[terms[0][0]])
                continue
            acc = zero
            for src, w in terms:
                acc = tuple(map(add, acc, map(w.__mul__, num[src])))
            out.append(acc)
        return tuple(out)

    return _stored(combine(m._re), m._im and combine(m._im), m._den)


def _bareiss(m: Matrix) -> Tuple[int, Tuple[int, int], int]:
    """Fraction-free elimination (Bareiss 1968) on the numerators of m, as
    rows of Gaussian-integer pairs: m times its denominator e, which keeps
    the rank and multiplies the determinant by e**n.  Returns the rank, the
    last pivot and the sign of the row permutation.

    After each pivot step every entry is a minor of the row-permuted matrix,
    so the division by the previous pivot is exact (Sylvester identity);
    column skipping for rank-deficient columns does not disturb this.  For a
    square matrix of full rank the last pivot is therefore the determinant
    of the row-permuted matrix.
    """
    rows = [list(zip(r, i)) for r, i in zip(m._re, _imag(m))]
    nr, nc = m.shape
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


# A prime with p = 1 (mod 4), so -1 has a square root _I mod p and Z[i] maps
# onto F_p by i -> _I, a ring map.  For a quadratic nonresidue g (Euler's
# criterion: g**((p - 1) / 2) = -1), g**((p - 1) / 4) squares to -1.
_P = 10**9 + 9
_I = next(pow(g, (_P - 1) // 4, _P) for g in range(2, _P)
          if pow(g, (_P - 1) // 2, _P) == _P - 1)
if _I * _I % _P != _P - 1:
    raise ImportError(f"{_I} is not a square root of -1 mod {_P}")


def _rank_mod_p(m: Matrix) -> int:
    """The rank over F_p of m's numerators, each x + y i sent to x + y _I.

    The reduction is a ring map, so every minor that vanishes over Q(i)
    vanishes mod p and this is a lower bound on the exact rank; dropping the
    common denominator does not change the rank.  Gaussian elimination
    drops the pivot column after each step, so every row is read from its
    first remaining column.
    """
    rows = [[(x + y * _I) % _P for x, y in zip(r, i)] for r, i in zip(m._re, _imag(m))]
    rk = 0
    while rows and rows[0]:
        k = next((k for k, r in enumerate(rows) if r[0]), None)
        if k is None:
            rows = [r[1:] for r in rows]
            continue
        head, *tail = rows.pop(k)
        inv = pow(head, -1, _P)
        piv = [y * inv % _P for y in tail]
        rows = [[(x - r[0] * y) % _P for x, y in zip(r[1:], piv)] if r[0] else r[1:]
                for r in rows]
        rk += 1
    return rk


def rank(m: Matrix) -> int:
    """Exact rank, certified by the rank mod p where it can be.

    The rank mod p is a lower bound; one that meets min(m.shape) is the
    rank.  A shortfall proves nothing, and the fraction-free elimination
    decides.
    """
    lower = _rank_mod_p(m)
    return lower if lower == min(m.shape) else _bareiss(m)[0]


# the symbol layer's name for the same rank
rank_bareiss = rank


def det(m: Matrix):
    """Exact determinant, read by the module's rule."""
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    rk, (re, im), sign = _bareiss(m)
    if rk < m.nrows:
        return 0
    return _scalar(sign * re, sign * im, m._den ** m.nrows)


def inverse(m: Matrix) -> Matrix:
    """Inverse as the adjugate over the determinant.

    Costs n^2 determinants of order n - 1; callers invert only 2 x 2 blocks.
    """
    d = det(m)
    if not d:
        raise ValueError("matrix is singular")
    n = m.nrows
    if n == 1:
        return Matrix([[Fraction(1) / d]])

    def minor(i: int, j: int) -> Matrix:
        return Matrix(r[:j] + r[j + 1:] for k, r in enumerate(m.rows) if k != i)

    return Matrix(tuple((-1) ** (i + j) * det(minor(j, i)) for j in range(n))
                  for i in range(n)).scaled(Fraction(1) / d)
