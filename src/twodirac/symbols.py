"""Symbol sequence of the length-3 complex and its exactness certificates.

For a covector X = (X1, X2), write M_i for the Clifford action of X_i.  The
three symbols are

    s1 = [M1; M2]                          (spinors -> pairs, order 1)
    s2 = [[-M2 M1, M1 M1], [-M2 M2, M1 M2]]  (pairs -> pairs, order 2)
    s3 = [-M2, M1]                          (pairs -> spinors, order 1)

All three are built from the one letter pair M1, M2 (``symbol_matrices``
builds it once).  s2 takes a single scatter product, P = M2 M1, and scalar
blocks: with q_i = <X_i, X_i> and b = <X1, X2>, the Clifford relations
gamma_a^2 = -1 and gamma_a gamma_b = -gamma_b gamma_a that
``build_gamma_rep`` certifies give, by bilinearity, M_i M_i = -q_i I and
M1 M2 = -P - 2b I, so

    s2 = [[-P, -q1 I], [q2 I, -P - 2b I]].

Every SymbolTriple checks ``s2 s1 = 0`` by a dense product of the assembled
matrices.  For the literal products it holds identically.  For s2 built from
the relations, the blocks of s2 s1 are -M2 (M1 M1 + q1 I) and
(M2 M2 + q2 I) M1 - M2 (M1 M2 + M2 M1 + 2b I), so ``s2 s1 = 0`` tests the
Clifford relations on each covector's own letters.

``s3 s2 = 0`` then needs no product.  With K = [[0, -I], [I, 0]], so that
K^dagger = -K = K^-1, the triple must satisfy two identities, each checked
by moving and negating numerators of the assembled matrices:

    (a) s3 = s1^dagger K;
    (b) K s2 is hermitian, K s2 = s2^dagger K^dagger.  Blockwise, for
        s2 = [[A, B], [C, D]] this reads B = B^dagger, C = C^dagger and
        A = -D^dagger.

They give (s3 s2)^dagger = s2^dagger K^dagger s1 = K s2 s1 = 0.  Both hold
for a real covector.  The generators are anti-hermitian, so M_i^dagger =
-M_i and s1^dagger K = [M2^dagger, -M1^dagger] = [-M2, M1] = s3.  The blocks
-q1 I and q2 I are real scalars, and -(-P - 2b I)^dagger = M1 M2 + 2b I =
-P.  Conversely, M(X)^dagger = -M(conj X), so (a) holds exactly when X is
real, and ``Covector`` takes int and ``Fraction`` components only.

Ellipticity amounts to ranks (s, s, s) for every nonzero covector, checked
here in exact arithmetic with an optional floating-point mirror.  Only
rank s1 is eliminated: a lower bound mod p (``linalg.rank``) that meets the
shape bound s, with the fraction-free (Bareiss) rank only on a shortfall
mod p.  The other two ranks follow from the triple:

* rank s3 = rank s1 by (a), because K is invertible and a matrix and its
  adjoint have one rank;
* rank s2 = s when rank s1 = s, given an off-diagonal block of s2 that is
  a nonzero scalar c I (-q1 I, or q2 I when X1 = 0; the exact report
  refuses a triple with neither).  That block is an invertible s x s
  submatrix, so rank s2 >= s.  And s2 s1 = 0 puts the image of s1 in the
  kernel of s2, so rank s2 <= 2s - rank s1 = s.

Only a faulted letter builder gives rank s1 != s, and there s2 is
eliminated too.  So a real nonzero covector costs one product (s2 s1) and
one elimination (s1).  The weight table holds the four highest weights;
each fiber dimension is derived from its weight as the gl(2) dimension
lam1 - lam2 + 1 times the spinor dimension s, which gives (s, 2s, 2s, s),
and their alternating sum, the symbol-level index, is zero.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import List, NamedTuple, Optional, Tuple

from .clifford import (CLIFFORD_SIGN, GammaRep, build_gamma_rep, clifford_mat,
                       times_clifford)
from .linalg import (Matrix, block, hstack, identity, is_zero_vec, rank_bareiss,
                     scalar_of, submatrix, vdot, vstack)
from .sampling import integer_vector, perpendicular_integer_vector

FLOAT_RANK_RTOL = 1e-9
MODES = ("exact", "float")


class Covector:
    """A cotangent vector, viewed as a pair of vectors in R^n with int or
    ``Fraction`` components."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1: tuple, x2: tuple):
        if len(x1) != len(x2):
            raise ValueError("covector components have different lengths")
        # an exact type test, as in CirclePoint: s3 = s1^dagger K needs a
        # real covector, and a float or a bool is no exact coordinate
        for a in (*x1, *x2):
            if type(a) not in (int, Fraction):
                raise ValueError(f"covector components must be int or Fraction, "
                                 f"got {a!r}")
        self.x1, self.x2 = x1, x2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Covector):
            return NotImplemented
        return self.x1 == other.x1 and self.x2 == other.x2

    def __hash__(self):
        return hash((self.x1, self.x2))

    def __repr__(self) -> str:
        # the failure records of the symbols and flat-dirac suites print it
        return f"Covector(x1={self.x1!r}, x2={self.x2!r})"

    @property
    def n(self) -> int:
        return len(self.x1)

    def is_zero(self) -> bool:
        return is_zero_vec(self.x1) and is_zero_vec(self.x2)

    def scaled(self, t) -> "Covector":
        return Covector(tuple(t * a for a in self.x1), tuple(t * a for a in self.x2))


def _letters(rep: GammaRep, x: Covector) -> Tuple[Matrix, Matrix]:
    """The pair M1, M2: the Clifford actions of X1 and X2."""
    if x.n != rep.n:
        raise ValueError(f"covector dimension {x.n} != n = {rep.n}")
    return clifford_mat(rep, x.x1), clifford_mat(rep, x.x2)


def _first(m1: Matrix, m2: Matrix) -> Matrix:
    return vstack(m1, m2)


def _third(m1: Matrix, m2: Matrix) -> Matrix:
    """Third symbol: (q1, q2) -> -X2.q1 + X1.q2, an s x 2s block row."""
    return hstack(-m2, m1)


def sigma1(rep: GammaRep, x: Covector) -> Matrix:
    """First symbol: psi -> (X1.psi, X2.psi), stacked as a 2s x s matrix."""
    return _first(*_letters(rep, x))


def _second(rep: GammaRep, x: Covector, m2: Matrix) -> Matrix:
    """Second symbol of x from its letter M2: (p1, p2) -> (-X2.X1.p1 +
    X1.X1.p2, -X2.X2.p1 + X1.X2.p2), from the one product P = M2 M1 and
    scalar blocks."""
    p = times_clifford(m2, rep, x.x1)
    q1, q2, b = vdot(x.x1, x.x1), vdot(x.x2, x.x2), vdot(x.x1, x.x2)
    eye, c = identity(rep.s), CLIFFORD_SIGN
    # M_i M_i = c q_i and M1 M2 = -M2 M1 + 2 c b, by bilinearity from
    # gamma_a^2 = c and gamma_a gamma_b = -gamma_b gamma_a
    return block([[-p, eye.scaled(c * q1)],
                  [eye.scaled(-c * q2), eye.scaled(2 * c * b) - p]])


def _k_dagger(m: Matrix) -> Matrix:
    """K^dagger m for K = [[0, -I], [I, 0]]: the lower half of m's rows over
    the negated upper half."""
    h, w = m.nrows // 2, m.ncols
    return vstack(submatrix(m, h, 2 * h, 0, w), -submatrix(m, 0, h, 0, w))


class SymbolTriple:
    """The three symbol matrices of one covector, checked to form a complex.

    ``s2 s1 = 0`` is checked by a product, and the two identities of the
    module docstring on the assembled matrices: (a) s3 = s1^dagger K, read
    as s3^dagger = K^dagger s1, and (b) K s2 hermitian, read on
    K^dagger s2 = -K s2.  Each raises when it fails.  Together they give
    s3 s2 = 0, and (a) gives rank s3 = rank s1.
    """

    __slots__ = ("s1", "s2", "s3")

    def __init__(self, s1: Matrix, s2: Matrix, s3: Matrix):
        if not (s2 @ s1).is_zero():
            raise AssertionError("s2 @ s1 != 0: complex property violated")
        s = s1.ncols
        # both identities are read on the symbol shapes 2s x s and 2s x 2s
        if s1.nrows != 2 * s or s3.adjoint() != _k_dagger(s1):
            raise AssertionError("s3 != s1^dagger K")
        h = _k_dagger(s2) if s2.shape == (2 * s, 2 * s) else None
        if h is None or h != h.adjoint():
            raise AssertionError("K s2 is not hermitian")
        self.s1, self.s2, self.s3 = s1, s2, s3


def symbol_matrices(rep: GammaRep, x: Covector) -> Tuple[Matrix, Matrix, Matrix]:
    """The three symbols (s1, s2, s3) of x, all from one letter pair; s2
    needs only the product M2 M1."""
    m1, m2 = _letters(rep, x)
    return _first(m1, m2), _second(rep, x, m2), _third(m1, m2)


def symbol_triple(rep: GammaRep, x: Covector) -> SymbolTriple:
    """The three symbols of x, checked to form a complex."""
    return SymbolTriple(*symbol_matrices(rep, x))


def _rank_float(m: Matrix) -> int:
    import numpy as np
    a = np.array([[complex(e) for e in row] for row in m.rows], dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    top = sv.max(initial=0.0)
    if top == 0.0:
        return 0
    return int((sv > FLOAT_RANK_RTOL * top).sum())


class ExactnessReport(NamedTuple):
    """The three symbol ranks of a covector with spinor dimension s.

    Exactness at E0, E1, E2 and E3 reads r1 = s, r1 + r2 = 2s, r2 + r3 = 2s
    and r3 = s, which together say (r1, r2, r3) = (s, s, s).
    """

    s: int
    rank1: int
    rank2: int
    rank3: int

    @property
    def all_exact(self) -> bool:
        return (self.rank1, self.rank2, self.rank3) == (self.s,) * 3


def exactness_report(rep: GammaRep, x: Covector, mode: str = "exact") -> ExactnessReport:
    """Rank the three symbols of a nonzero covector.

    Exact mode is the authority.  It refuses a triple with no off-diagonal
    block of s2 a nonzero scalar, eliminates s1 alone (``rank_bareiss``: a
    rank mod p that meets the shape bound, Bareiss on a shortfall) and
    reads the other two ranks off the triple, by the module docstring's
    proofs: rank s3 = rank s1, and rank s2 = s when rank s1 = s.  Where
    rank s1 != s (a faulted letter builder), s2 is eliminated as well.
    Float mode ranks all three by singular values with a relative threshold
    and exists to cross-check the exact path.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if x.is_zero():
        raise ValueError("exactness is only defined for nonzero covectors")
    triple = symbol_triple(rep, x)
    s = rep.s
    if mode == "float":
        return ExactnessReport(s, *map(_rank_float, (triple.s1, triple.s2, triple.s3)))
    if not (scalar_of(submatrix(triple.s2, 0, s, s, 2 * s))
            or scalar_of(submatrix(triple.s2, s, 2 * s, 0, s))):
        raise AssertionError("no off-diagonal block of s2 is a nonzero scalar")
    r1 = rank_bareiss(triple.s1)
    r2 = s if r1 == s else rank_bareiss(triple.s2)
    return ExactnessReport(s, r1, r2, r1)


class ScanFailure(NamedTuple):
    covector: Covector
    report: Optional[ExactnessReport]  # None if the symbols are not a complex
    error: str = ""


class ScanReport(NamedTuple):
    n: int
    samples: int
    seed: int
    mode: str
    checked: int
    passed: bool
    failures: Tuple[ScanFailure, ...] = ()


def degenerate_family(n: int, rng: Random) -> List[Covector]:
    """Covectors random sampling almost never hits: one component zero,
    collinear pairs, and orthogonal pairs, over basis and seeded vectors."""
    zero = (0,) * n
    vecs = [tuple(1 if i == a else 0 for i in range(n)) for a in range(n)]
    vecs += [integer_vector(rng, n) for _ in range(3)]
    out: List[Covector] = []
    for v in vecs:
        out.append(Covector(v, zero))
        out.append(Covector(zero, v))
        out.append(Covector(v, v))
        out.append(Covector(v, tuple(-a for a in v)))
    for a in range(n):
        for b in range(n):
            if a != b:
                out.append(Covector(vecs[a], vecs[b]))
    for v in vecs[n:]:
        out.append(Covector(v, perpendicular_integer_vector(rng, v)))
    return out


def random_covector(n: int, rng: Random) -> Covector:
    while True:
        x = Covector(integer_vector(rng, n, nonzero=False),
                     integer_vector(rng, n, nonzero=False))
        if not x.is_zero():
            return x


def ellipticity_scan(n: int, samples: int, seed: int, mode: str = "exact") -> ScanReport:
    """Run exactness reports over seeded covectors plus the degenerate family.

    Covectors are generated up front from the seed, so the outcome is a pure
    function of (n, samples, seed, mode) no matter how the loop is scheduled.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rep = build_gamma_rep(n)
    rng = Random(seed)
    covectors = degenerate_family(n, rng)
    covectors += [random_covector(n, rng) for _ in range(samples)]
    failures = []
    for x in covectors:
        try:
            rpt = exactness_report(rep, x, mode)
        except AssertionError as exc:  # SymbolTriple's checks, or no scalar block
            failures.append(ScanFailure(x, None, str(exc)))
            continue
        if not rpt.all_exact:
            failures.append(ScanFailure(x, rpt))
    return ScanReport(n=n, samples=samples, seed=seed, mode=mode,
                      checked=len(covectors), passed=not failures,
                      failures=tuple(failures))


# -- fiber dimensions, weights, index -----------------------------------------

def spinor_dim(n: int) -> int:
    return 2 ** (n // 2)


class WeightTable(NamedTuple):
    """Highest weights and operator orders of the complex; its fiber
    dimensions and index are derived from the weights."""

    n: int
    lam: Tuple[Tuple[Fraction, Fraction], ...]
    orders: Tuple[int, int, int]

    @property
    def fiber_dims(self) -> Tuple[int, ...]:
        """The gl(2) dimension lam1 - lam2 + 1 of each weight times the
        spinor dimension."""
        s = spinor_dim(self.n)
        return tuple(s * int(a - b + 1) for a, b in self.lam)

    @property
    def index(self) -> int:
        """The alternating sum of the fiber dimensions."""
        return sum(d * (-1) ** i for i, d in enumerate(self.fiber_dims))


def weight_table(n: int) -> WeightTable:
    """The four module weights (halved bracket pairs) and orders (1, 2, 1)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    half = Fraction(1, 2)
    lam = ((half * (n - 1), half * (n - 1)),
           (half * (n + 1), half * (n - 1)),
           (half * (n + 3), half * (n + 1)),
           (half * (n + 3), half * (n + 3)))
    return WeightTable(n=n, lam=lam, orders=(1, 2, 1))
