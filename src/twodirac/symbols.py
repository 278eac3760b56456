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
K^dagger = -K = K^-1, the triple is checked, by moving and negating
numerators of the assembled matrices, for two identities:

    (a) s3 = s1^dagger K;
    (b) K s2 is hermitian, K s2 = s2^dagger K^dagger.  Blockwise, for
        s2 = [[A, B], [C, D]] this reads B = B^dagger, C = C^dagger and
        A = -D^dagger.

They give (s3 s2)^dagger = s2^dagger K^dagger s1 = K s2 s1 = 0.  Both hold
for a real covector.  The generators are anti-hermitian, so M_i^dagger =
-M_i and s1^dagger K = [M2^dagger, -M1^dagger] = [-M2, M1] = s3.  The blocks
-q1 I and q2 I are real scalars, and -(-P - 2b I)^dagger = M1 M2 + 2b I =
-P.  Where an identity fails (a faulted builder, or a covector with
non-real entries), the product s3 s2 is formed and tested.

Ellipticity amounts to ranks (s, s, s) for every nonzero covector, checked
here in exact arithmetic with an optional floating-point mirror.  Only
rank s1 is eliminated: a lower bound mod p (``linalg.rank``) that meets the
shape bound s, with the fraction-free (Bareiss) rank only on a shortfall
mod p.  The other two ranks follow from the triple:

* rank s3 = rank s1 when (a) holds, because K is invertible and a matrix
  and its adjoint have one rank;
* rank s2 = s when rank s1 = s and an off-diagonal block of s2 is a
  nonzero scalar c I (-q1 I, or q2 I when X1 = 0).  That block is an
  invertible s x s submatrix, so rank s2 >= s.  And s2 s1 = 0 puts the
  image of s1 in the kernel of s2, so rank s2 <= 2s - rank s1 = s.

Where (a) fails, s3 is eliminated; where the scalar block or rank s1 = s
fails, s2 is eliminated mod p against the bound 2s - rank s1.  So a real
nonzero covector costs one product (s2 s1) and one elimination (s1).  The
weight table holds the four highest weights; each fiber dimension is
derived from its weight as the gl(2) dimension lam1 - lam2 + 1 times the
spinor dimension s, which gives (s, 2s, 2s, s), and their alternating sum,
the symbol-level index, is zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import List, Optional, Tuple

from .clifford import (CLIFFORD_SIGN, GammaRep, build_gamma_rep, clifford_mat,
                       times_clifford)
from .linalg import (Matrix, block, hstack, identity, is_zero_vec, rank_bareiss,
                     scalar_of, submatrix, vdot, vstack)
from .sampling import integer_vector, perpendicular_integer_vector

FLOAT_RANK_RTOL = 1e-9
MODES = ("exact", "float")


@dataclass(frozen=True)
class Covector:
    """A cotangent vector, viewed as a pair of vectors in R^n."""

    x1: tuple
    x2: tuple

    def __post_init__(self):
        if len(self.x1) != len(self.x2):
            raise ValueError("covector components have different lengths")

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


@dataclass(frozen=True)
class SymbolTriple:
    """The three symbol matrices of one covector; a complex by construction.

    ``s2 s1 = 0`` is checked by a product.  ``s3 s2 = 0`` is proven when the
    two identities of the module docstring hold on the assembled matrices:
    (a) s3 = s1^dagger K, read as s3^dagger = K^dagger s1, and (b) K s2
    hermitian, read on K^dagger s2 = -K s2.  Then (s3 s2)^dagger =
    s2^dagger K^dagger s1 = K s2 s1 = 0.  When either fails, the product
    s3 s2 is formed and tested.  ``s3_from_s1`` records whether (a) held,
    which makes rank s3 = rank s1 (K is invertible, and a matrix and its
    adjoint have one rank).
    """

    s1: Matrix
    s2: Matrix
    s3: Matrix
    s3_from_s1: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s1, s2, s3 = self.s1, self.s2, self.s3
        if not (s2 @ s1).is_zero():
            raise AssertionError("s2 @ s1 != 0: complex property violated")
        s = s1.ncols
        # both identities are read on the symbol shapes 2s x s and 2s x 2s
        adjoint = s1.nrows == 2 * s and s3.adjoint() == _k_dagger(s1)
        object.__setattr__(self, "s3_from_s1", adjoint)
        if adjoint and s2.shape == (2 * s, 2 * s):
            h = _k_dagger(s2)
            if h == h.adjoint():
                return
        if not (s3 @ s2).is_zero():
            raise AssertionError("s3 @ s2 != 0: complex property violated")


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


@dataclass(frozen=True)
class ExactnessReport:
    rank1: int
    rank2: int
    rank3: int
    exact_at_0: bool
    exact_at_1: bool
    exact_at_2: bool
    exact_at_3: bool

    @property
    def all_exact(self) -> bool:
        return (self.exact_at_0 and self.exact_at_1
                and self.exact_at_2 and self.exact_at_3)


def _has_scalar_block(s2: Matrix, s: int) -> bool:
    """Whether an off-diagonal s x s block of s2 is a nonzero scalar c I."""
    return bool(scalar_of(submatrix(s2, 0, s, s, 2 * s))
                or scalar_of(submatrix(s2, s, 2 * s, 0, s)))


def exactness_report(rep: GammaRep, x: Covector, mode: str = "exact") -> ExactnessReport:
    """Rank the three symbols of a nonzero covector and flag exactness.

    Exact mode is the authority.  It eliminates s1 alone (``rank_bareiss``:
    a rank mod p that meets the shape bound, Bareiss on a shortfall) and
    derives the other two ranks from the triple, by the module docstring's
    proofs:

    * rank s3 = rank s1 when ``SymbolTriple`` found s3 = s1^dagger K;
    * rank s2 = s when rank s1 = s and an off-diagonal block of s2 is a
      nonzero scalar c I: that block gives rank s2 >= s, and s2 s1 = 0,
      which ``SymbolTriple`` has just checked on these matrices, gives
      rank s2 <= 2s - rank s1 = s.

    Where a premise fails, that rank is eliminated: rank s3 with no bound,
    rank s2 with the bound 2s - rank s1.  Float mode ranks all three by
    singular values with a relative threshold and exists to cross-check the
    exact path.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if x.is_zero():
        raise ValueError("exactness is only defined for nonzero covectors")
    triple = symbol_triple(rep, x)
    s = rep.s
    if mode == "exact":
        r1 = rank_bareiss(triple.s1)
        if r1 == s and _has_scalar_block(triple.s2, s):
            r2 = s
        else:
            r2 = rank_bareiss(triple.s2, at_most=2 * s - r1)
        r3 = r1 if triple.s3_from_s1 else rank_bareiss(triple.s3)
    else:
        r1, r2, r3 = (_rank_float(m) for m in (triple.s1, triple.s2, triple.s3))
    return ExactnessReport(rank1=r1, rank2=r2, rank3=r3,
                           exact_at_0=r1 == s,
                           exact_at_1=r1 + r2 == 2 * s,
                           exact_at_2=r2 + r3 == 2 * s,
                           exact_at_3=r3 == s)


@dataclass(frozen=True)
class ScanFailure:
    covector: Covector
    report: Optional[ExactnessReport]  # None if the symbols are not a complex
    error: str = ""


@dataclass(frozen=True)
class ScanReport:
    n: int
    samples: int
    seed: int
    mode: str
    checked: int
    passed: bool
    failures: Tuple[ScanFailure, ...] = field(default_factory=tuple)


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
        except AssertionError as exc:  # raised by SymbolTriple
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


@dataclass(frozen=True)
class WeightTable:
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
