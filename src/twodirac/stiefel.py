"""Orthonormal 2-frames, the contact form, Reeb field, and the plane quotient.

Every object is the one matrix that determines it, with k = n + 2: a frame
is the k x 2 matrix F = (v1 | v2) with F^T F = I, a tangent at F is a k x 2
matrix W with F^T W + W^T F = 0, and the orthonormal complement of the
frame's plane is a k x n matrix C.  Each operation is one matrix identity on
these, with J = [[0, 1], [-1, 0]]:

* the circle acts by F -> F [[c, d], [-d, c]]; its velocity, the Reeb field,
  is the product F J = (-v2 | v1), and the quotient sends F to the 2-vector
  F J F^T;
* the contact form is alpha(W) = -(F^T W)[1, 0] = -<w1, v2>, normalized so
  alpha(reeb) = 1, and W lies in the contact distribution exactly when
  F^T W = 0, i.e. both columns are orthogonal to the frame's plane;
* the frame corresponds to the totally isotropic plane spanned by the columns
  of U = [I; F] inside the split space R^2 + R^k, stored in the basis
  (f1, f2, e1, ..., e_k) where the form is S = diag(-1, -1, +1, ..., +1), so
  isotropy is U^T S U = 0, i.e. U_top^T U_top = U_bottom^T U_bottom for the
  first two rows and the rest, and all checks stay rational.

The rotations A and B that act on frames and planes arrive certified, as
``spin.RationalRotation``s (real, R^T R = I and det R = 1), and the actions
check only their orders.  An oriented plane is certified as a point of the Plucker
embedding by ``linalg.is_unit_two_vector``: one identity through a pivot
entry makes o decomposable, and a norm makes it the unit 2-vector of an
orthonormal pair, with no matrix product and no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Tuple

from .linalg import (Matrix, has_orthonormal_columns, identity, is_unit_two_vector,
                     submatrix, vstack)
from .sampling import rational_fraction, rotation
from .scalars import CirclePoint
from .spin import RationalRotation

# the generator of the circle acting on a frame's two columns
J = Matrix([[0, 1], [-1, 0]])


class Frame2:
    """Exact orthonormal 2-frame in R^{n+2}: the real k x 2 matrix (v1 | v2),
    certified by the column dot products of its numerators."""

    __slots__ = ("mat",)

    def __init__(self, mat: Matrix):
        if not mat.is_real():
            raise ValueError("frame is not real")
        if mat.ncols != 2 or not has_orthonormal_columns(mat):
            raise ValueError("frame columns are not an orthonormal pair")
        self.mat = mat

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame2):
            return NotImplemented
        return self.mat == other.mat

    @property
    def ambient_dim(self) -> int:
        return self.mat.nrows


class StiefelTangent:
    """Real tangent (w1 | w2) at a frame F: the linearized orthonormality
    F^T W + W^T F = 0 holds.  The 2 x 2 pairing G = F^T W that the check
    forms is kept: the contact form and the contact distribution read it.
    Equality compares the base and W, not the pairing they determine."""

    __slots__ = ("base", "mat", "pairing")

    def __init__(self, base: Frame2, mat: Matrix):
        f = base.mat
        if mat.shape != f.shape:
            raise ValueError("tangent does not have the frame's shape")
        if not mat.is_real():
            raise ValueError("tangent is not real")
        g = f.transpose() @ mat
        if not (g + g.transpose()).is_zero():
            raise ValueError("tangent violates the linearized orthonormality")
        self.base, self.mat, self.pairing = base, mat, g

    def __eq__(self, other) -> bool:
        if not isinstance(other, StiefelTangent):
            return NotImplemented
        return self.base == other.base and self.mat == other.mat


class OrientedPlane:
    """Oriented 2-plane, kept as its unit 2-vector o = v1 v2^T - v2 v1^T.

    The constructor accepts o exactly when ``linalg.is_unit_two_vector``
    does: o is real and skew, satisfies the Plucker identity through its
    first nonzero entry above the diagonal, and has unit norm.  That is the
    unit 2-vector of an orthonormal pair (the proof is in its docstring), so
    o e1 = -e2, o e2 = e1 and o vanishes on the plane's complement, and the
    orthogonal projector onto the plane is -o^2.
    """

    __slots__ = ("orientation",)

    def __init__(self, orientation: Matrix):
        if not is_unit_two_vector(orientation):
            raise ValueError("orientation is not the unit 2-vector of a plane")
        self.orientation = orientation

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedPlane):
            return NotImplemented
        return self.orientation == other.orientation


def frame_to_isotropic(f: Frame2) -> Matrix:
    """U = [I; F]: its columns f_i + v_i span the corresponding isotropic plane."""
    return vstack(identity(2), f.mat)


def is_isotropic(u: Matrix) -> bool:
    """U^T S U = 0 for the split form S = diag(-1, -1, +1, ..., +1), read as
    U_top^T U_top = U_bottom^T U_bottom for the first two rows U_top and the
    others U_bottom: two products the size of the result, no S."""
    top, bottom = submatrix(u, 0, 2, 0, u.ncols), submatrix(u, 2, u.nrows, 0, u.ncols)
    return top.transpose() @ top == bottom.transpose() @ bottom


def isotropic_to_frame(u: Matrix) -> Frame2:
    """Renormalize a basis (the columns of u) of an isotropic plane into the
    shape [I; F]: the negative-summand block becomes the identity, and the
    positive-summand block U_bottom U_top^{-1} is then an orthonormal frame.
    U_top = [[a, b], [c, d]] is inverted as its adjugate
    [[d, -b], [-c, a]] over ad - bc.
    """
    if u.ncols != 2:
        raise ValueError("a plane basis has two columns")
    (a, b), (c, d) = submatrix(u, 0, 2, 0, 2).rows
    det = a * d - b * c
    if not det:
        raise ValueError("plane is not transverse to the positive summand")
    adjugate = Matrix([[d, -b], [-c, a]])
    return Frame2((submatrix(u, 2, u.nrows, 0, 2) @ adjugate).scaled(Fraction(1) / det))


def ksharp_act(a: RationalRotation, b: RationalRotation, f: Frame2) -> Frame2:
    """Action (A, B).(v1|v2) = B (v1|v2) A^{-1} of SO(2) x SO(n+2)."""
    if a.mat.shape != (2, 2):
        raise ValueError("A must be 2 x 2")
    if b.mat.nrows != f.ambient_dim:
        raise ValueError("B must match the ambient dimension")
    return Frame2(b.mat @ f.mat @ a.mat.transpose())  # A^{-1} = A^T in SO(2)


def center_rotate(f: Frame2, p: CirclePoint) -> Frame2:
    """Rotation of the frame in its own plane by p = (c, d) / e (the circle action)."""
    c, d, e = p.numerators
    return Frame2(f.mat @ Matrix([[c, d], [-d, c]]).scaled(Fraction(1, e)))


def contact_alpha(t: StiefelTangent):
    """Value of the contact form: -<w1, v2> = -(F^T W)[1, 0]."""
    return -t.pairing[1, 0]


def _reeb_mat(f: Frame2) -> Matrix:
    """F J = (-v2 | v1), one k x 2 by 2 x 2 product."""
    return f.mat @ J


def reeb_field(f: Frame2) -> StiefelTangent:
    """Velocity (-v2 | v1) of the circle action; alpha(reeb) = 1."""
    return StiefelTangent(f, _reeb_mat(f))


def in_contact_distribution(t: StiefelTangent) -> bool:
    """Both components orthogonal to the frame's plane: F^T W = 0."""
    return t.pairing.is_zero()


def levi_form_H(f: Frame2, t1: StiefelTangent, t2: StiefelTangent):
    """Skew pairing <t2.w1, t1.w2> - <t1.w1, t2.w2> on the contact distribution."""
    for t in (t1, t2):
        if t.base != f:
            raise ValueError("tangent is not based at the given frame")
        if not in_contact_distribution(t):
            raise ValueError("tangent is not in the contact distribution")
    g = t1.mat.transpose() @ t2.mat
    return g[1, 0] - g[0, 1]


def levi_witness(t: StiefelTangent) -> StiefelTangent:
    """Partner (w2 | -w1) pairing positively with t; certifies nondegeneracy."""
    return StiefelTangent(t.base, t.mat @ J.transpose())


def quotient_q(f: Frame2) -> OrientedPlane:
    """Oriented span F J F^T of the frame; constant along circle orbits."""
    return OrientedPlane(_reeb_mat(f) @ f.mat.transpose())


def plane_act(b: RationalRotation, plane: OrientedPlane) -> OrientedPlane:
    """Induced SO(n+2) action on oriented planes: o -> B o B^T."""
    if b.mat.nrows != plane.orientation.nrows:
        raise ValueError("B must match the ambient dimension")
    return OrientedPlane(b.mat @ plane.orientation @ b.mat.transpose())


# -- seeded samplers ------------------------------------------------------------

def random_frame_with_complement(n: int, rng: Random) -> Tuple[Frame2, Matrix]:
    """Seeded frame F plus an exact orthonormal basis C (k x n) of its plane's
    complement.

    Both are columns of one seeded rotation, so no normalization step is ever
    needed.
    """
    k = n + 2
    rot = rotation(rng, k)
    return Frame2(submatrix(rot, 0, k, 0, 2)), submatrix(rot, 0, k, 2, k)


def random_tangent(f: Frame2, rng: Random) -> StiefelTangent:
    """Project a seeded rational k x 2 matrix U onto the tangent constraints:
    W = U - F (G + G^T) / 2 with G = F^T U."""
    k = f.ambient_dim
    u1 = [rational_fraction(rng) for _ in range(k)]
    u2 = [rational_fraction(rng) for _ in range(k)]
    u = Matrix(zip(u1, u2))
    g = f.mat.transpose() @ u
    return StiefelTangent(f, u - f.mat @ (g + g.transpose()).scaled(Fraction(1, 2)))


def random_contact_tangent(f: Frame2, complement: Matrix,
                           rng: Random) -> StiefelTangent:
    """Seeded nonzero tangent C R with both components in the plane's
    complement C, R an integer n x 2 matrix."""
    n = complement.ncols
    while True:
        r1 = [rng.randint(-5, 5) for _ in range(n)]
        r2 = [rng.randint(-5, 5) for _ in range(n)]
        w = complement @ Matrix(zip(r1, r2))
        if not w.is_zero():
            return StiefelTangent(f, w)


def tangent_coordinates(t: StiefelTangent, complement: Matrix) -> Matrix:
    """Coordinates X = C^T W of a contact tangent in an orthonormal complement
    basis C.

    X is the n x 2 block whose columns are the coordinates of w1 and w2; this
    is the identification under which the geometric Levi form matches the
    algebraic Heisenberg bracket.
    """
    if not in_contact_distribution(t):
        raise ValueError("tangent is not in the contact distribution")
    x = complement.transpose() @ t.mat
    # coordinates must reconstruct the tangent exactly
    if complement @ x != t.mat:
        raise ValueError("complement basis does not span the tangent components")
    return x
