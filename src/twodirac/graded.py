"""The contact-graded orthogonal Lie algebra in block form.

Elements are stored as six blocks (A, B, X, Y, Z, W) of an (n+4) x (n+4)
matrix preserving the split bilinear form with two hyperbolic directions:
rows and columns split 2 | n | 2 as

    [ A    Z^T    W   ]
    [ X     B    -Z   ]
    [ Y   -X^T  -A^T  ]

with B, Y, W skew.  Grades: Y <-> -2, X <-> -1, (A, B) <-> 0, Z <-> +1,
W <-> +2.  The grade (-1, -1) -> -2 component of the commutator is the
Heisenberg bracket; its nondegeneracy is the contact condition checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Sequence

from .linalg import (Matrix, block, det, identity_q, qmat, rank, submatrix,
                     zeros_q)

GRADES = (-2, -1, 0, 1, 2)


def _check_skew(m: Matrix, name: str) -> None:
    if m.transpose() != -m:
        raise ValueError(f"block {name} must be skew-symmetric")


@dataclass(frozen=True)
class GradedElement:
    """One element, kept as its six defining blocks."""

    n: int
    A: Matrix  # 2 x 2
    B: Matrix  # n x n skew
    X: Matrix  # n x 2
    Y: Matrix  # 2 x 2 skew
    Z: Matrix  # n x 2
    W: Matrix  # 2 x 2 skew

    def __post_init__(self):
        n = self.n
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        for m, shape, name in ((self.A, (2, 2), "A"), (self.B, (n, n), "B"),
                               (self.X, (n, 2), "X"), (self.Y, (2, 2), "Y"),
                               (self.Z, (n, 2), "Z"), (self.W, (2, 2), "W")):
            if m.shape != shape:
                raise ValueError(f"block {name} has shape {m.shape}, expected {shape}")
        _check_skew(self.B, "B")
        _check_skew(self.Y, "Y")
        _check_skew(self.W, "W")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if self.n != other.n:
            raise ValueError("elements live over different n")
        return GradedElement(self.n, self.A + other.A, self.B + other.B,
                             self.X + other.X, self.Y + other.Y,
                             self.Z + other.Z, self.W + other.W)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.n, -self.A, -self.B, -self.X, -self.Y,
                             -self.Z, -self.W)

    def scaled(self, s) -> "GradedElement":
        return GradedElement(self.n, self.A.scaled(s), self.B.scaled(s),
                             self.X.scaled(s), self.Y.scaled(s),
                             self.Z.scaled(s), self.W.scaled(s))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in (self.A, self.B, self.X, self.Y,
                                         self.Z, self.W))


def zero_element(n: int) -> GradedElement:
    return GradedElement(n, zeros_q(2, 2), zeros_q(n, n), zeros_q(n, 2),
                         zeros_q(2, 2), zeros_q(n, 2), zeros_q(2, 2))


def element(n: int, A: Optional[Matrix] = None, B: Optional[Matrix] = None,
            X: Optional[Matrix] = None, Y: Optional[Matrix] = None,
            Z: Optional[Matrix] = None, W: Optional[Matrix] = None) -> GradedElement:
    """Element with the given blocks, all others zero."""
    z = zero_element(n)
    return GradedElement(n,
                         z.A if A is None else A, z.B if B is None else B,
                         z.X if X is None else X, z.Y if Y is None else Y,
                         z.Z if Z is None else Z, z.W if W is None else W)


def h_gram(n: int) -> Matrix:
    """Gram matrix of the defining bilinear form in the split basis."""
    eye2, eyen = identity_q(2), identity_q(n)
    z22, z2n = zeros_q(2, 2), zeros_q(2, n)
    return block([[z22, z2n, eye2],
                  [z2n.transpose(), eyen, z2n.transpose()],
                  [eye2, z2n, z22]])


def assemble(e: GradedElement) -> Matrix:
    """The full (n+4) x (n+4) matrix of an element."""
    return block([[e.A, e.Z.transpose(), e.W],
                  [e.X, e.B, -e.Z],
                  [e.Y, -e.X.transpose(), -e.A.transpose()]])


class DisassemblyError(ValueError):
    """The given matrix does not have the required block structure."""


def disassemble(m: Matrix, n: int) -> GradedElement:
    """Split a matrix back into blocks, checking membership in the algebra."""
    if m.shape != (n + 4, n + 4):
        raise DisassemblyError(f"matrix has shape {m.shape}, expected {(n + 4, n + 4)}")
    a = submatrix(m, 0, 2, 0, 2)
    zt = submatrix(m, 0, 2, 2, n + 2)
    w = submatrix(m, 0, 2, n + 2, n + 4)
    x = submatrix(m, 2, n + 2, 0, 2)
    b = submatrix(m, 2, n + 2, 2, n + 2)
    mz = submatrix(m, 2, n + 2, n + 2, n + 4)
    y = submatrix(m, n + 2, n + 4, 0, 2)
    mxt = submatrix(m, n + 2, n + 4, 2, n + 2)
    mat = submatrix(m, n + 2, n + 4, n + 2, n + 4)
    if mz != -zt.transpose() or mxt != -x.transpose() or mat != -a.transpose():
        raise DisassemblyError("matrix is not in the orthogonal algebra")
    try:
        return GradedElement(n, a, b, x, y, zt.transpose(), w)
    except ValueError as exc:
        raise DisassemblyError(str(exc)) from exc


def grade_project(e: GradedElement, i: int) -> GradedElement:
    """Keep only the blocks of grade i."""
    if i not in GRADES:
        raise ValueError(f"grade {i} outside {GRADES}")
    if i == -2:
        return element(e.n, Y=e.Y)
    if i == -1:
        return element(e.n, X=e.X)
    if i == 0:
        return element(e.n, A=e.A, B=e.B)
    if i == 1:
        return element(e.n, Z=e.Z)
    return element(e.n, W=e.W)


def bracket(e: GradedElement, f: GradedElement) -> GradedElement:
    """Commutator, computed on assembled matrices and split back into blocks."""
    if e.n != f.n:
        raise ValueError("elements live over different n")
    me, mf = assemble(e), assemble(f)
    return disassemble(me @ mf - mf @ me, e.n)


def levi_bracket(x1: Matrix, x2: Matrix) -> Matrix:
    """Grade (-1,-1) -> -2 part of the bracket: the skew 2x2 form X2^T X1 - X1^T X2."""
    if x1.shape != x2.shape or x1.ncols != 2:
        raise ValueError(f"expected two n x 2 blocks, got {x1.shape} and {x2.shape}")
    return x2.transpose() @ x1 - x1.transpose() @ x2


def standard_neg1_basis(n: int) -> List[Matrix]:
    """Matrix units of the n x 2 block: first all of column 1, then column 2."""
    out = []
    for col in range(2):
        for a in range(n):
            out.append(Matrix(tuple(1 if (i == a and j == col) else 0
                                    for j in range(2)) for i in range(n)))
    return out


def heisenberg_gram(n: int, basis: Optional[Sequence[Matrix]] = None) -> Matrix:
    """Gram matrix of the scalar Heisenberg form over the given 2n-element basis."""
    if basis is None:
        basis = standard_neg1_basis(n)
    basis = list(basis)
    if len(basis) != 2 * n:
        raise ValueError(f"basis has {len(basis)} elements, expected {2 * n}")
    flat = qmat([tuple(x for row in b.rows for x in row) for b in basis])
    if rank(flat) < 2 * n:
        raise ValueError("basis does not span the grade -1 space")
    return Matrix(tuple(levi_bracket(bi, bj)[0, 1] for bj in basis) for bi in basis)


# -- group membership tests ----------------------------------------------------

def grade_basis(n: int, i: int) -> List[GradedElement]:
    """Canonical spanning set of the grade-i subspace."""
    out = []
    if i == -2:
        out.append(element(n, Y=qmat([[0, -1], [1, 0]])))
    elif i == 2:
        out.append(element(n, W=qmat([[0, -1], [1, 0]])))
    elif i in (-1, 1):
        for unit in standard_neg1_basis(n):
            out.append(element(n, X=unit) if i == -1 else element(n, Z=unit))
    elif i == 0:
        for a in range(2):
            for b in range(2):
                out.append(element(n, A=Matrix(tuple(1 if (r == a and c == b) else 0
                                                     for c in range(2)) for r in range(2))))
        for a in range(n):
            for b in range(a + 1, n):
                rows = [[0] * n for _ in range(n)]
                rows[a][b] = 1
                rows[b][a] = -1
                out.append(element(n, B=qmat(rows)))
    else:
        raise ValueError(f"grade {i} outside {GRADES}")
    return out


def _check_h_orthogonal(g: Matrix, n: int) -> Matrix:
    """Check g^T H g = H and det g = 1; return g^-1, which is H g^T H as H^2 = I."""
    if g.shape != (n + 4, n + 4):
        raise ValueError(f"matrix has shape {g.shape}, expected {(n + 4, n + 4)}")
    h = h_gram(n)
    gt_h = g.transpose() @ h
    if gt_h @ g != h:
        raise ValueError("matrix does not preserve the bilinear form")
    if det(g) != 1:
        raise ValueError("matrix has determinant != 1")
    return h @ gt_h


def _conjugation_keeps_grades(g: Matrix, n: int,
                              must_vanish: Callable[[int, int], bool]) -> bool:
    """Does conjugation by g map each grade-i element to one whose grade-j
    component is zero wherever ``must_vanish(i, j)``?"""
    g_inv = _check_h_orthogonal(g, n)
    for i in GRADES:
        for e in grade_basis(n, i):
            image = disassemble(g @ assemble(e) @ g_inv, n)
            if any(not grade_project(image, j).is_zero()
                   for j in GRADES if must_vanish(i, j)):
                return False
    return True


def is_parabolic_member(g: Matrix, n: int) -> bool:
    """Does conjugation by g preserve the filtration by grades >= i?"""
    return _conjugation_keeps_grades(g, n, lambda i, j: j < i)


def is_levi_member(g: Matrix, n: int) -> bool:
    """Does conjugation by g preserve each grade summand on the nose?"""
    return _conjugation_keeps_grades(g, n, lambda i, j: j != i)


def trace_form(e: GradedElement, f: GradedElement):
    """Trace form pairing; puts grade -2 in duality with +2 and -1 with +1."""
    return (assemble(e) @ assemble(f)).trace()


def random_element(n: int, rng: Random, lo: int = -5, hi: int = 5) -> GradedElement:
    def rnd(r, c):
        return qmat([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])

    def rnd_skew(k):
        rows = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                v = rng.randint(lo, hi)
                rows[a][b] = v
                rows[b][a] = -v
        return qmat(rows)

    return GradedElement(n, rnd(2, 2), rnd_skew(n), rnd(n, 2), rnd_skew(2),
                         rnd(n, 2), rnd_skew(2))
