"""Complex spinor representation of the Clifford algebra of R^n.

Generators are built by the standard tensor-doubling recursion from the
2-dimensional base case, then scaled by i so that every generator is
anti-hermitian and squares to ``CLIFFORD_SIGN * Id`` with the fixed
convention ``CLIFFORD_SIGN = -1`` (vectors act with
``v.v.psi = -|v|^2 psi``).  All entries stay in ``{0, +-1, +-i}``, so every
product taken downstream is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

from .linalg import Matrix, gmat, zeros_g
from .scalars import GR_I, GR_ONE, GR_ZERO

# v.v = CLIFFORD_SIGN * |v|^2 throughout the package.
CLIFFORD_SIGN = -1

_SIGMA_X = gmat([[0, 1], [1, 0]])
_SIGMA_Y = Matrix([[GR_ZERO, -GR_I], [GR_I, GR_ZERO]])
_SIGMA_Z = gmat([[1, 0], [0, -1]])


@dataclass(frozen=True)
class GammaRep:
    """Ordered generators gamma_1..gamma_n acting on spinors of dimension s."""

    n: int
    s: int
    gammas: Tuple[Matrix, ...]


def _tensor(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(tuple(x * y for x in ra for y in rb)
                  for ra in a.rows for rb in b.rows)


def _hermitian_gammas(n: int) -> list:
    if n == 2:
        return [_SIGMA_X, _SIGMA_Y]
    if n % 2 == 1:
        gs = _hermitian_gammas(n - 1)
        m = (n - 1) // 2
        chirality = gs[0]
        for g in gs[1:]:
            chirality = chirality @ g
        # (-i)**m, cycling with period 4
        unit = (GR_ONE, -GR_I, -GR_ONE, GR_I)[m % 4]
        return gs + [chirality.scaled(unit)]
    gs = _hermitian_gammas(n - 2)
    size = gs[0].nrows
    eye = gmat([[1 if i == j else 0 for j in range(size)] for i in range(size)])
    return [_tensor(g, _SIGMA_Z) for g in gs] + [_tensor(eye, _SIGMA_X),
                                                 _tensor(eye, _SIGMA_Y)]


_UNIT_ENTRIES = (GR_ZERO, GR_ONE, -GR_ONE, GR_I, -GR_I)


def _validate(rep: GammaRep) -> None:
    if rep.s != 2 ** (rep.n // 2):
        raise AssertionError("spinor dimension mismatch")
    eye = gmat([[1 if i == j else 0 for j in range(rep.s)] for i in range(rep.s)])
    want_sq = eye.scaled(CLIFFORD_SIGN)
    for a, ga in enumerate(rep.gammas):
        for e in (x for row in ga.rows for x in row):
            if e not in _UNIT_ENTRIES:
                raise AssertionError(f"gamma_{a + 1} entry {e} outside 0, +-1, +-i")
        # spin inverses are taken as adjoints, which needs gamma^dagger = -gamma
        if ga.adjoint() != -ga:
            raise AssertionError(f"gamma_{a + 1} is not anti-hermitian")
        for b in range(a, rep.n):
            gb = rep.gammas[b]
            anti = ga @ gb + gb @ ga
            want = want_sq.scaled(2) if a == b else zeros_g(rep.s, rep.s)
            if anti != want:
                raise AssertionError(f"gamma_{a + 1}, gamma_{b + 1} fail Clifford relation")


@lru_cache(maxsize=None)
def build_gamma_rep(n: int) -> GammaRep:
    """Deterministic gamma matrices for Cl(n), n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    gammas = tuple(g.scaled(GR_I) for g in _hermitian_gammas(n))
    rep = GammaRep(n=n, s=2 ** (n // 2), gammas=gammas)
    _validate(rep)
    return rep


def clifford_mat(rep: GammaRep, v: Sequence) -> Matrix:
    """Clifford action of the vector v as an s x s matrix, sum of v_a gamma_a."""
    if len(v) != rep.n:
        raise ValueError(f"vector length {len(v)} != n = {rep.n}")
    rows = [[GR_ZERO] * rep.s for _ in range(rep.s)]
    for coeff, gamma in zip(v, rep.gammas):
        if not coeff:
            continue
        for i, grow in enumerate(gamma.rows):
            row = rows[i]
            for j, x in enumerate(grow):
                if x:
                    row[j] = row[j] + coeff * x
    return Matrix(rows)


def clifford_act(rep: GammaRep, v: Sequence, psi: Sequence) -> tuple:
    """Vector v acting on the spinor psi."""
    if len(psi) != rep.s:
        raise ValueError(f"spinor length {len(psi)} != s = {rep.s}")
    return clifford_mat(rep, v).apply(psi)


def basis_spinor(rep: GammaRep, k: int) -> tuple:
    return tuple(GR_ONE if i == k else GR_ZERO for i in range(rep.s))
