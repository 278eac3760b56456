"""The contact-graded orthogonal Lie algebra, graded by its grading element.

The split bilinear form h of signature (n+2, 2) has as Gram matrix H the
permutation matrix of the involution sigma that swaps the indices 0, 1 with
n+2, n+3 and fixes the rest.  An element of so(h) is kept as its
(n+4) x (n+4) matrix M; as H^2 = I, M^T H + H M = 0 is the identity
M = -H M^T H, entrywise M[r][c] = -M[sigma(c)][sigma(r)], which every
element certifies by one ``linalg.mirrored`` on its numerators.  Split
2 | n | 2, M has the blocks

    [ A    Z^T    W   ]
    [ X     B    -Z   ]
    [ Y   -X^T  -A^T  ]

with B, Y, W skew.  The grading element E = diag(w), w = (1, 1, 0, ..., 0,
-1, -1), splits so(h) into the eigenspaces of ad(E): entry (r, c) has grade
w(r) - w(c), so Y <-> -2, X <-> -1, (A, B) <-> 0, Z <-> +1, W <-> +2.
Projecting to grade i keeps the entries of one 0/1 mask per (n, i)
(``linalg.masked``); as sigma reverses w, the grade of (r, c) is that of
(sigma(c), sigma(r)), so each mask is mirror-symmetric and a projection
stays in so(h).  The grade (-1, -1) -> -2 component of the commutator is
the Heisenberg bracket; its nondegeneracy is the contact condition checked
here.

The closure [g_i, g_j] in g_{i+j} is certified by one exact product per
grade pair i <= j, not one commutator per pair of basis elements
(``closure_flags``): block (a, b) of L_ij = vstack(grade-i basis) @
hstack(grade-j basis) is E_a E_b.  Each product's support is read once
(``linalg.support``), and every nonzero entry (r, c) of L_ij must have grade
w(r mod k) - w(c mod k) = i + j, k = n + 4, so each E_a E_b, and with it
each bracket E_a E_b - E_b E_a, has grade i + j.  That the brackets lie in
so(h) needs no test: every basis element is a ``GradedElement``, which
holds only elements of so(h), and so(h) is closed under the bracket.

The group membership tests conjugate each basis element by g, with
g^-1 = H g^T H once g^T H g = H is checked, and compute only the entries
that must vanish.  Both g and g^-1 are scaled to their integer numerators
(``linalg.cleared``), which multiplies every such entry by one nonzero
constant: the zero test is unchanged and every term is an integer product.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from random import Random
from typing import Callable, FrozenSet, List, Mapping, Sequence, Tuple

from .linalg import (Matrix, cleared, det, hstack, masked, mirrored, submatrix,
                     support, vstack)

GRADES = (-2, -1, 0, 1, 2)

# the entry range of random_element
ENTRY_LO, ENTRY_HI = -5, 5


def _weights(n: int) -> Tuple[int, ...]:
    """The diagonal w of the grading element."""
    return (1, 1) + (0,) * n + (-1, -1)


def _mirror(n: int) -> Tuple[int, ...]:
    """The involution sigma whose permutation matrix is H."""
    return (n + 2, n + 3) + tuple(range(2, n + 2)) + (0, 1)


class GradedElement:
    """One element of so(h), kept as its (n+4) x (n+4) matrix."""

    __slots__ = ("n", "mat")

    def __init__(self, n: int, mat: Matrix):
        k = n + 4
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        if mat.shape != (k, k):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(k, k)}")
        if mirrored(mat, _mirror(n)) != mat:
            raise ValueError("matrix is not in the orthogonal algebra")
        self.n, self.mat = n, mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.n == other.n and self.mat == other.mat

    @property
    def A(self) -> Matrix:
        return submatrix(self.mat, 0, 2, 0, 2)

    @property
    def B(self) -> Matrix:
        return submatrix(self.mat, 2, self.n + 2, 2, self.n + 2)

    @property
    def X(self) -> Matrix:
        return submatrix(self.mat, 2, self.n + 2, 0, 2)

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if self.n != other.n:
            raise ValueError("elements live over different n")
        return GradedElement(self.n, self.mat + other.mat)

    def is_zero(self) -> bool:
        return self.mat.is_zero()


@lru_cache(maxsize=None)
def h_gram(n: int) -> Matrix:
    """Gram matrix of the defining bilinear form in the split basis."""
    s = _mirror(n)
    return Matrix(tuple(1 if c == s[r] else 0 for c in range(n + 4))
                  for r in range(n + 4))


@lru_cache(maxsize=None)
def grade_mask(n: int, i: int) -> Matrix:
    """The 0/1 matrix marking the entries (r, c) of grade w(r) - w(c) = i."""
    if i not in GRADES:
        raise ValueError(f"grade {i} outside {GRADES}")
    w = _weights(n)
    return Matrix(tuple(int(w[r] - w[c] == i) for c in range(n + 4)) for r in range(n + 4))


def grade_project(e: GradedElement, i: int) -> GradedElement:
    """Keep only the entries of grade i."""
    return GradedElement(e.n, masked(e.mat, grade_mask(e.n, i)))


def bracket(e: GradedElement, f: GradedElement) -> GradedElement:
    """The matrix commutator."""
    if e.n != f.n:
        raise ValueError("elements live over different n")
    me, mf = e.mat, f.mat
    return GradedElement(e.n, me @ mf - mf @ me)


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


def heisenberg_gram(n: int) -> Matrix:
    """Gram matrix of the scalar Heisenberg form over the standard basis of
    grade -1."""
    basis = standard_neg1_basis(n)
    return Matrix(tuple(levi_bracket(bi, bj)[0, 1] for bj in basis) for bi in basis)


# -- grade bases and the closure of the grading --------------------------------

def _grade_positions(n: int, i: int) -> List[Tuple[int, int]]:
    """The position (r, c) of the +1 entry of each grade-i basis element
    E_rc - E_sigma(c)sigma(r), in row-major order."""
    if i not in GRADES:
        raise ValueError(f"grade {i} outside {GRADES}")
    w, s, k = _weights(n), _mirror(n), n + 4
    return [(r, c) for r in range(k) for c in range(k)
            if w[r] - w[c] == i and (r, c) < (s[c], s[r])]


def grade_basis(n: int, i: int) -> List[GradedElement]:
    """Basis of the grade-i subspace: E_rc - E_sigma(c)sigma(r) for each pair
    of mirrored positions of grade i, in row-major order of the first one."""
    s, k = _mirror(n), n + 4
    return [GradedElement(n, Matrix(
        tuple(1 if (a, b) == (r, c) else -1 if (a, b) == (s[c], s[r])
              else 0 for b in range(k)) for a in range(k)))
        for r, c in _grade_positions(n, i)]


def closure_flags(n: int, bases: Mapping[int, Sequence[GradedElement]]
                  ) -> FrozenSet[Tuple[int, int]]:
    """The grade pairs (i, j) for which the stacked products of the grade-i and
    grade-j basis do not certify that every bracket [E_a, E_b] lies in grade
    i + j; with (i, j) flagged, (j, i) is flagged too.

    Block (a, b) of L_ij = vstack(grade-i basis) @ hstack(grade-j basis) is
    E_a E_b.  L_ij passes when every nonzero entry (r, c) has grade
    w(r mod k) - w(c mod k) = i + j (so none passes when |i + j| > 2).  A
    pair is left unflagged when L_ij and L_ji both pass: then E_a E_b and
    E_b E_a have grade i + j, and so has their difference.

    Only the 15 products with i <= j are formed: L_ji passes exactly when
    L_ij does.  With P = H, M N = P (N M)^T P^T for M, N in so(h) (below),
    so E_b E_a = P (E_a E_b)^T P^T and L_ji = (I (x) P) L_ij^T (I (x) P)^T:
    a support entry (r, c) of block (a, b) of L_ij moves to (sigma(c),
    sigma(r)) of block (b, a), and as sigma reverses w,
    w(sigma(c)) - w(sigma(r)) = w(r) - w(c), a position of the same grade.

    The grade test is the whole certificate, because each bracket lies in
    so(h) already.  Every basis element passed ``GradedElement``'s mirror
    identity M = -P M^T P^T, P = H the permutation matrix of sigma.  For two
    such matrices M N = P M^T N^T P^T = P (N M)^T P^T, as P^T P = I, so the
    bracket satisfies [M, N] = -P [M, N]^T P^T without a test.
    """
    w = _weights(n)
    # per grade, the weight of each row (column) of its stack
    tiled = {i: w * len(bases[i]) for i in GRADES}
    stacked = {i: vstack(*(e.mat for e in bases[i])) for i in GRADES}
    sided = {j: hstack(*(e.mat for e in bases[j])) for j in GRADES}
    flagged = set()
    for i, j in combinations_with_replacement(GRADES, 2):
        wr, wc = tiled[i], tiled[j]
        if any(wr[r] - wc[c] != i + j for r, c in support(stacked[i] @ sided[j])):
            flagged |= {(i, j), (j, i)}
    return frozenset(flagged)


# -- group membership tests ----------------------------------------------------

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
    component is zero wherever ``must_vanish(i, j)``?

    For the basis element E_rc - E_sigma(c)sigma(r), g E g^-1 is column r of g
    times row c of g^-1 minus column sigma(c) of g times row sigma(r) of
    g^-1, so only the entries that must vanish are computed.
    """
    g_inv = _check_h_orthogonal(g, n)
    w, s, k = _weights(n), _mirror(n), n + 4
    # e g and e' g^-1 for the denominators e, e': each watched entry is
    # scaled by e e' != 0, so it vanishes exactly when it did before
    g_cols, inv_rows = cleared(g).transpose().rows, cleared(g_inv).rows
    for i in GRADES:
        watched = [(p, q) for p in range(k) for q in range(k)
                   if must_vanish(i, w[p] - w[q])]
        for r, c in _grade_positions(n, i):
            u, x = g_cols[r], inv_rows[c]
            v, y = g_cols[s[c]], inv_rows[s[r]]
            if any(u[p] * x[q] - v[p] * y[q] for p, q in watched):
                return False
    return True


def is_parabolic_member(g: Matrix, n: int) -> bool:
    """Does conjugation by g preserve the filtration by grades >= i?"""
    return _conjugation_keeps_grades(g, n, lambda i, j: j < i)


def is_levi_member(g: Matrix, n: int) -> bool:
    """Does conjugation by g preserve each grade summand on the nose?"""
    return _conjugation_keeps_grades(g, n, lambda i, j: j != i)


def random_element(n: int, rng: Random) -> GradedElement:
    """Seeded element with integer entries in ENTRY_LO..ENTRY_HI.

    The blocks are drawn in the order A, B, X, Y, Z, W, each row by row and a
    skew block above its diagonal only, and written straight into the rows
    of [[A, Z^T, W], [X, B, -Z], [Y, -X^T, -A^T]]; ``GradedElement``
    certifies the result by its mirror identity.
    """
    def rnd(r, c):
        return [[rng.randint(ENTRY_LO, ENTRY_HI) for _ in range(c)] for _ in range(r)]

    def rnd_skew(k):
        rows = [[0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                v = rng.randint(ENTRY_LO, ENTRY_HI)
                rows[a][b] = v
                rows[b][a] = -v
        return rows

    A, B, X, Y, Z, W = rnd(2, 2), rnd_skew(n), rnd(n, 2), rnd_skew(2), rnd(n, 2), rnd_skew(2)
    top = [A[a] + [z[a] for z in Z] + W[a] for a in range(2)]
    middle = [X[r] + B[r] + [-Z[r][0], -Z[r][1]] for r in range(n)]
    bottom = [Y[a] + [-x[a] for x in X] + [-A[0][a], -A[1][a]] for a in range(2)]
    return GradedElement(n, Matrix(top + middle + bottom))
