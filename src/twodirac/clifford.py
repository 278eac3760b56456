"""Complex spinor representation of the Clifford algebra of R^n.

Generators are built by the standard tensor-doubling recursion from the
2-dimensional base case, then scaled by i so that every generator is
anti-hermitian and squares to ``CLIFFORD_SIGN * Id`` with the fixed
convention ``CLIFFORD_SIGN = -1`` (vectors act with
``v.v.psi = -|v|^2 psi``).

Every generator is a signed permutation (monomial: one unit entry in each
row and each column), and that is how it is stored: row i of gamma_a has its
one nonzero entry ``i**phases[a][i]`` in column ``cols[a][i]``.  Tensoring
with a Pauli matrix, the chirality product and scaling by a unit keep this
form, so the build costs O(n s) and forms no dense matrix.  Validation
certifies the Clifford relations on the permutations and phase exponents,
row by row, in O(n^2 s).  Every product with a Clifford action goes through
``times_clifford``, m @ sum v_a gamma_a, which is the scatter kernel
``linalg.times_signed_perms``: it moves each column of m to its permuted
place and turns its integer numerators by a power of i, so it forms no dense
product.  ``clifford_mat`` is the identity times sum v_a gamma_a, and a
spinor is acted on by ``clifford_mat(rep, v).apply(psi)``.  Only this
module, two ``linalg`` kernels (the scatter, and ``intertwines``, to which
``spin.rho_n`` hands the generators) and ``flat`` (which turns a stack of
spinor rows C into C gamma^T with ``GammaRep.transposed_phases``) read the
permutations and phases; no generator is stored as a dense matrix.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import Sequence, Tuple

from .linalg import Matrix, identity, times_signed_perms

# v.v = CLIFFORD_SIGN * |v|^2 throughout the package.
CLIFFORD_SIGN = -1

# the phase exponent of a real unit
_EXPONENT = {1: 0, -1: 2}

# A signed permutation as (cols, phases): row i has i**phases[i] in cols[i].
SignedPermutation = Tuple[Tuple[int, ...], Tuple[int, ...]]

_SIGMA_X = ((1, 0), (0, 0))
_SIGMA_Y = ((1, 0), (3, 1))
_SIGMA_Z = ((0, 1), (0, 2))


class GammaRep:
    """Ordered generators gamma_1..gamma_n acting on spinors of dimension s.

    Row i of gamma_a has the entry ``i**phases[a][i]`` in column
    ``cols[a][i]`` and zeros elsewhere.
    """

    __slots__ = ("n", "s", "cols", "phases", "_transposed_phases")

    def __init__(self, n: int, s: int, cols: Tuple[Tuple[int, ...], ...],
                 phases: Tuple[Tuple[int, ...], ...]):
        self.n, self.s, self.cols, self.phases = n, s, cols, phases
        self._transposed_phases = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaRep):
            return NotImplemented
        return ((self.n, self.s, self.cols, self.phases)
                == (other.n, other.s, other.cols, other.phases))

    def __hash__(self):
        return hash((self.n, self.s, self.cols, self.phases))

    @property
    def transposed_phases(self) -> Tuple[Tuple[int, ...], ...]:
        """The phase exponents of the generators' transposes, whose columns
        are again ``cols``: row j of gamma^T has its entry in the column i
        with cols[i] = j, and gamma^2 = -Id (certified by the build) makes
        cols an involution, so i = cols[j] and the exponent is
        phases[cols[j]].  Formed on first use."""
        if self._transposed_phases is None:
            self._transposed_phases = tuple(
                tuple(phases[i] for i in cols)
                for cols, phases in zip(self.cols, self.phases))
        return self._transposed_phases


def _tensor(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """The Kronecker product a (x) b: row (i, k) has column (ca[i], cb[k])."""
    (ca, pa), (cb, pb) = a, b
    q = len(cb)
    return (tuple(j * q + c for j in ca for c in cb),
            tuple((x + y) % 4 for x in pa for y in pb))


def _compose(a: SignedPermutation, b: SignedPermutation) -> SignedPermutation:
    """The matrix product a b: row i of a picks row ca[i] of b."""
    (ca, pa), (cb, pb) = a, b
    return tuple(cb[j] for j in ca), tuple((x + pb[j]) % 4 for x, j in zip(pa, ca))


def _turned(a: SignedPermutation, k: int) -> SignedPermutation:
    """a scaled by i**k."""
    return a[0], tuple((x + k) % 4 for x in a[1])


def _hermitian_gammas(n: int) -> list:
    if n == 2:
        return [_SIGMA_X, _SIGMA_Y]
    if n % 2 == 1:
        gs = _hermitian_gammas(n - 1)
        m = (n - 1) // 2
        # the chirality element scaled by (-i)**m = i**(-m)
        return gs + [_turned(reduce(_compose, gs), -m)]
    gs = _hermitian_gammas(n - 2)
    size = len(gs[0][0])
    eye = (tuple(range(size)), (0,) * size)
    return [_tensor(g, _SIGMA_Z) for g in gs] + [_tensor(eye, _SIGMA_X),
                                                 _tensor(eye, _SIGMA_Y)]


def _validate(rep: GammaRep) -> None:
    """Certify the generators from their permutations and phase exponents.

    For signed permutations g, h, row i of g h has column ch[cg[i]] and phase
    exponent pg[i] + ph[cg[i]], and row cg[i] of g^dagger has column i and
    exponent -pg[i]; each relation is compared row by row.
    """
    n, s = rep.n, rep.s
    if s != 2 ** (n // 2):
        raise AssertionError("spinor dimension mismatch")
    if len(rep.cols) != n or len(rep.phases) != n:
        raise AssertionError(f"expected {n} generators")
    square = _EXPONENT[CLIFFORD_SIGN]
    rows = range(s)
    for a, (ca, pa) in enumerate(zip(rep.cols, rep.phases)):
        if sorted(ca) != list(rows) or len(pa) != s:
            raise AssertionError(f"gamma_{a + 1} is not monomial")
        if any(k not in (0, 1, 2, 3) for k in pa):
            raise AssertionError(f"gamma_{a + 1} has a phase outside 1, -1, i, -i")
        # spin inverses are taken as adjoints, which needs gamma^dagger = -gamma
        if any(ca[j] != i or (pa[i] + pa[j] + 2) % 4 for i, j in enumerate(ca)):
            raise AssertionError(f"gamma_{a + 1} is not anti-hermitian")
        if any(ca[j] != i or (pa[i] + pa[j] - square) % 4 for i, j in enumerate(ca)):
            raise AssertionError(f"gamma_{a + 1}, gamma_{a + 1} fail Clifford relation")
        for b in range(a + 1, n):
            cb, pb = rep.cols[b], rep.phases[b]
            # gamma_a gamma_b = -gamma_b gamma_a, row by row
            if any(cb[j] != ca[cb[i]] or (pa[i] + pb[j] - pb[i] - pa[cb[i]] - 2) % 4
                   for i, j in enumerate(ca)):
                raise AssertionError(
                    f"gamma_{a + 1}, gamma_{b + 1} fail Clifford relation")


@lru_cache(maxsize=None)
def build_gamma_rep(n: int) -> GammaRep:
    """Deterministic gamma matrices for Cl(n), n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gammas = [_turned(g, 1) for g in _hermitian_gammas(n)]
    rep = GammaRep(n=n, s=2 ** (n // 2), cols=tuple(c for c, _ in gammas),
                   phases=tuple(p for _, p in gammas))
    _validate(rep)
    return rep


def times_clifford(m: Matrix, rep: GammaRep, v: Sequence) -> Matrix:
    """m times the Clifford action of the vector v, m @ sum_a v_a gamma_a,
    by scatter on m's numerators."""
    return times_signed_perms(m, zip(v, rep.cols, rep.phases))


def clifford_mat(rep: GammaRep, v: Sequence) -> Matrix:
    """Clifford action of the vector v as an s x s matrix, sum v_a gamma_a."""
    if len(v) != rep.n:
        raise ValueError(f"vector length {len(v)} != n = {rep.n}")
    return times_clifford(identity(rep.s), rep, v)

