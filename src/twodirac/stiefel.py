"""Orthonormal 2-frames, the contact form, Reeb field, and the plane quotient.

A frame (v1, v2) in R^{n+2} corresponds to the totally isotropic plane
spanned by (f1 + v1, f2 + v2) inside the split space R^2 + R^{n+2}, where
{f1, f2} is an orthonormal basis of the negative-definite summand.  Vectors
of the split space are stored in the basis (f1, f2, e1, ..., e_{n+2}), so the
bilinear form is diag(-1, -1, +1, ..., +1) and all checks stay rational.

The circle acting by rotating a frame inside its own plane generates the Reeb
direction (-v2, v1); the contact form is alpha = -<w1, v2>, normalized so
alpha(reeb) = 1, and its kernel consists exactly of the tangents whose two
components are orthogonal to the frame's plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Sequence, Tuple

from .linalg import (Matrix, det, identity, inverse, is_zero_vec, rank, vadd, vdot,
                     vneg, vscale, vsub)
from .sampling import rational_fraction, rotation
from .scalars import CirclePoint


@dataclass(frozen=True)
class Frame2:
    """Exact orthonormal 2-frame in R^{n+2}."""

    v1: tuple
    v2: tuple

    def __post_init__(self):
        if len(self.v1) != len(self.v2):
            raise ValueError("frame vectors have different lengths")
        if vdot(self.v1, self.v1) != 1 or vdot(self.v2, self.v2) != 1:
            raise ValueError("frame vectors are not unit vectors")
        if vdot(self.v1, self.v2) != 0:
            raise ValueError("frame vectors are not orthogonal")

    @property
    def ambient_dim(self) -> int:
        return len(self.v1)


def standard_frame(n: int) -> Frame2:
    e1 = (1,) + (0,) * (n + 1)
    e2 = (0, 1) + (0,) * n
    return Frame2(e1, e2)


@dataclass(frozen=True)
class StiefelTangent:
    """Tangent vector (w1, w2) at a frame: the linearized orthonormality holds."""

    base: Frame2
    w1: tuple
    w2: tuple

    def __post_init__(self):
        f = self.base
        if len(self.w1) != f.ambient_dim or len(self.w2) != f.ambient_dim:
            raise ValueError("tangent components have wrong length")
        if vdot(self.w1, f.v1) != 0 or vdot(self.w2, f.v2) != 0:
            raise ValueError("tangent violates unit-norm linearization")
        if vdot(self.w1, f.v2) + vdot(self.w2, f.v1) != 0:
            raise ValueError("tangent violates orthogonality linearization")

    def __add__(self, other: "StiefelTangent") -> "StiefelTangent":
        if self.base != other.base:
            raise ValueError("tangents at different frames")
        return StiefelTangent(self.base, vadd(self.w1, other.w1),
                              vadd(self.w2, other.w2))

    def scaled(self, s) -> "StiefelTangent":
        return StiefelTangent(self.base, vscale(s, self.w1), vscale(s, self.w2))


@dataclass(frozen=True)
class OrientedPlane:
    """Oriented 2-plane, kept as its unit 2-vector o = v1 v2^T - v2 v1^T.

    A real skew matrix is the unit 2-vector of an orthonormal pair exactly
    when o^3 = -o and rank o = 2; the orthogonal projector onto the plane is
    then -o^2.
    """

    orientation: Matrix

    def __post_init__(self):
        o = self.orientation
        if o.transpose() != -o or o @ o @ o != -o or rank(o) != 2:
            raise ValueError("orientation is not the unit 2-vector of a plane")

    @property
    def projector(self) -> Matrix:
        o = self.orientation
        return -(o @ o)


def frame_to_isotropic(f: Frame2) -> Tuple[tuple, tuple]:
    """The basis (f1 + v1, f2 + v2) of the corresponding isotropic plane."""
    u1 = (1, 0) + tuple(f.v1)
    u2 = (0, 1) + tuple(f.v2)
    return u1, u2


def split_form(u: Sequence, w: Sequence):
    """The split bilinear form diag(-1, -1, +1, ..., +1)."""
    if len(u) != len(w):
        raise ValueError("length mismatch")
    return -u[0] * w[0] - u[1] * w[1] + sum(a * b for a, b in zip(u[2:], w[2:]))


def isotropic_to_frame(b1: Sequence, b2: Sequence) -> Frame2:
    """Renormalize a basis of an isotropic plane into the (f_i + v_i) shape.

    Solves for the combination whose negative-summand part is the identity;
    the positive-summand parts then form an orthonormal frame.
    """
    top = Matrix([[b1[0], b2[0]], [b1[1], b2[1]]])
    try:
        # columns of top^{-1} give the two renormalizing combinations
        inv = inverse(top)
    except ValueError:
        raise ValueError("plane is not transverse to the positive summand") from None
    c1 = vadd(vscale(inv[0, 0], tuple(b1)), vscale(inv[1, 0], tuple(b2)))
    c2 = vadd(vscale(inv[0, 1], tuple(b1)), vscale(inv[1, 1], tuple(b2)))
    return Frame2(c1[2:], c2[2:])


def _check_special_orthogonal(m: Matrix, what: str) -> None:
    if m.transpose() @ m != identity(m.nrows) or det(m) != 1:
        raise ValueError(f"{what} is not special orthogonal")


def ksharp_act(a: Matrix, b: Matrix, f: Frame2) -> Frame2:
    """Action (A, B).(v1|v2) = B (v1|v2) A^{-1} of SO(2) x SO(n+2)."""
    if a.shape != (2, 2):
        raise ValueError("A must be 2 x 2")
    if b.shape != (f.ambient_dim, f.ambient_dim):
        raise ValueError("B must match the ambient dimension")
    _check_special_orthogonal(a, "A")
    _check_special_orthogonal(b, "B")
    cols = Matrix([[x, y] for x, y in zip(f.v1, f.v2)])
    moved = b @ cols @ a.transpose()  # A^{-1} = A^T in SO(2)
    return Frame2(moved.col(0), moved.col(1))


def center_rotate(f: Frame2, p: CirclePoint) -> Frame2:
    """Rotation of the frame inside its own plane (the circle action)."""
    return Frame2(vsub(vscale(p.c, f.v1), vscale(p.d, f.v2)),
                  vadd(vscale(p.d, f.v1), vscale(p.c, f.v2)))


def contact_alpha(t: StiefelTangent):
    """Value of the contact form: -<w1, v2>."""
    return -vdot(t.w1, t.base.v2)


def reeb_field(f: Frame2) -> StiefelTangent:
    """Velocity of the circle action; alpha(reeb) = 1."""
    return StiefelTangent(f, vneg(f.v2), f.v1)


def in_contact_distribution(t: StiefelTangent) -> bool:
    """Both components orthogonal to the frame's plane."""
    f = t.base
    return (vdot(t.w1, f.v1) == 0 and vdot(t.w1, f.v2) == 0
            and vdot(t.w2, f.v1) == 0 and vdot(t.w2, f.v2) == 0)


def levi_form_H(f: Frame2, t1: StiefelTangent, t2: StiefelTangent):
    """Skew pairing <t2.w1, t1.w2> - <t1.w1, t2.w2> on the contact distribution."""
    for t in (t1, t2):
        if t.base != f:
            raise ValueError("tangent is not based at the given frame")
        if contact_alpha(t) != 0 or not in_contact_distribution(t):
            raise ValueError("tangent is not in the contact distribution")
    return vdot(t2.w1, t1.w2) - vdot(t1.w1, t2.w2)


def levi_witness(t: StiefelTangent) -> StiefelTangent:
    """Partner (w2, -w1) pairing positively with t; certifies nondegeneracy."""
    return StiefelTangent(t.base, t.w2, vneg(t.w1))


def quotient_q(f: Frame2) -> OrientedPlane:
    """Oriented span of the frame; constant along circle orbits."""
    k = f.ambient_dim
    return OrientedPlane(Matrix([[f.v1[i] * f.v2[j] - f.v2[i] * f.v1[j]
                                for j in range(k)] for i in range(k)]))


def plane_act(b: Matrix, plane: OrientedPlane) -> OrientedPlane:
    """Induced SO(n+2) action on oriented planes."""
    _check_special_orthogonal(b, "B")
    return OrientedPlane(b @ plane.orientation @ b.transpose())


def tangent_from_skew(f: Frame2, psi: Matrix) -> StiefelTangent:
    """Tangent generated by an infinitesimal rotation psi (skew matrix)."""
    if psi.transpose() != -psi:
        raise ValueError("generator must be skew")
    return StiefelTangent(f, psi.apply(f.v1), psi.apply(f.v2))


def infinitesimal_rotation(t: StiefelTangent) -> Matrix:
    """A skew matrix psi with psi v1 = w1 and psi v2 = w2.

    Uses psi = w1 v1^T - v1 w1^T + w2 v2^T - v2 w2^T + corrections on the
    plane, valid for any tangent satisfying the linearized constraints.
    """
    f = t.base
    k = f.ambient_dim
    c = vdot(t.w1, f.v2)  # = -<w2, v1>
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            val = (t.w1[i] * f.v1[j] - f.v1[i] * t.w1[j]
                   + t.w2[i] * f.v2[j] - f.v2[i] * t.w2[j]
                   + c * (f.v1[i] * f.v2[j] - f.v2[i] * f.v1[j]))
            row.append(val)
        rows.append(row)
    psi = Matrix(rows)
    if psi.apply(f.v1) != tuple(t.w1) or psi.apply(f.v2) != tuple(t.w2):
        raise AssertionError("infinitesimal rotation reconstruction failed")
    return psi


# -- seeded samplers ------------------------------------------------------------

def random_frame_with_complement(n: int, rng: Random) -> Tuple[Frame2, List[tuple]]:
    """Seeded frame plus an exact orthonormal basis of its plane's complement.

    Both come from the columns of one seeded rotation, so no normalization
    step is ever needed.
    """
    rot = rotation(rng, n + 2)
    frame = Frame2(rot.col(0), rot.col(1))
    return frame, [rot.col(j) for j in range(2, n + 2)]


def random_tangent(f: Frame2, rng: Random) -> StiefelTangent:
    """Project seeded rational vectors onto the tangent constraints."""
    k = f.ambient_dim
    u1 = tuple(rational_fraction(rng) for _ in range(k))
    u2 = tuple(rational_fraction(rng) for _ in range(k))
    w1 = vsub(u1, vscale(vdot(u1, f.v1), f.v1))
    w2 = vsub(u2, vscale(vdot(u2, f.v2), f.v2))
    mixed = vdot(w1, f.v2) + vdot(w2, f.v1)
    half = mixed / 2
    w1 = vsub(w1, vscale(half, f.v2))
    w2 = vsub(w2, vscale(half, f.v1))
    return StiefelTangent(f, w1, w2)


def random_contact_tangent(f: Frame2, complement: Sequence[tuple],
                           rng: Random) -> StiefelTangent:
    """Seeded tangent with both components in the plane's complement."""
    def combo():
        out = (0,) * f.ambient_dim
        for b in complement:
            out = vadd(out, vscale(rng.randint(-5, 5), b))
        return out

    while True:
        w1, w2 = combo(), combo()
        if not (is_zero_vec(w1) and is_zero_vec(w2)):
            return StiefelTangent(f, w1, w2)


def tangent_coordinates(t: StiefelTangent, complement: Sequence[tuple]) -> Matrix:
    """Coordinates of a contact tangent in an orthonormal complement basis.

    Returns the n x 2 block whose columns are the coordinates of w1 and w2;
    this is the identification under which the geometric Levi form matches
    the algebraic Heisenberg bracket.
    """
    if not in_contact_distribution(t):
        raise ValueError("tangent is not in the contact distribution")
    rows = [[vdot(b, t.w1), vdot(b, t.w2)] for b in complement]
    x = Matrix(rows)
    # coordinates must reconstruct the tangent exactly
    r1 = (0,) * t.base.ambient_dim
    r2 = (0,) * t.base.ambient_dim
    for b, row in zip(complement, rows):
        r1 = vadd(r1, vscale(row[0], b))
        r2 = vadd(r2, vscale(row[1], b))
    if r1 != tuple(t.w1) or r2 != tuple(t.w2):
        raise ValueError("complement basis does not span the tangent components")
    return x
