"""Spin(n), Spin^c(n), their projections to rotations, and the stabilizer maps.

Group elements are stored as exact spinor matrices together with the
generating word of rational unit vectors; the spinor matrix is always the
product of the word's Clifford matrices, never taken from a caller.  The
first letter's matrix is ``clifford.clifford_mat``, and each later letter v
is applied as mat <- mat (sum_a v_a gamma_a) by ``clifford.times_clifford``;
both are scatters over the gammas' signed permutations, so no product is
formed.  The induced rotation R is composed from the word's line reflections
on integer numerators, with no reflection matrix, and certified against the
spinor matrix S with no matrix product either: S intertwines the generators
with their images, S gamma_alpha = C_alpha S with C_alpha the Clifford action
of column alpha of R (one ``linalg.intertwines`` call, which decides all n
identities on S's moved numerators), and ||S||_F^2 = s; ``rho_n`` proves
that the two give S gamma_alpha S^dagger = C_alpha.  Rotations are certified
once, by ``RationalRotation``: R^T R = I and det R = 1.  A Spin^c class acts
on spinors by its one matrix, ``gamma_c_mat``.
The gammas are anti-hermitian (the gamma build certifies it), so the spinor
matrix S of a word of unit vectors is unitary and its inverse is the adjoint
S^dagger; no inverse is computed or stored.  With the package convention
``v.v = -|v|^2``, the word ``(e1, e1)`` realizes the nontrivial central
element (acting as ``-Id`` on spinors) and ``(e1, -e1)`` is the identity.

Spin^c classes are pairs ``(phase, spin)`` modulo the simultaneous sign flip;
phases are exact rational circle points, and the half-angle data required by
the inverse stabilizer maps is carried as a witness on the point itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from random import Random
from typing import Sequence, Tuple

from .clifford import GammaRep, clifford_mat, times_clifford
from .linalg import Matrix, det, frobenius_sq, identity, intertwines, vdot
from .scalars import CIRCLE_ONE, CirclePoint
from .sampling import circle_point, circle_point_with_half, givens, unit_vector

# random_spin draws words of at most this many pairs of unit vectors
MAX_PAIRS = 3


class RationalRotation:
    """Exact special orthogonal matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat: Matrix):
        self.mat = mat
        # its own method, which perfbench times as the span
        # spin.RationalRotation.__post_init__
        self.__post_init__()

    def __post_init__(self):
        m = self.mat
        if m.nrows != m.ncols:
            raise ValueError("rotation matrix must be square")
        if m.transpose() @ m != identity(m.nrows):
            raise ValueError("matrix is not orthogonal")
        if det(m) != 1:
            raise ValueError("matrix has determinant != 1")


class SpinElement:
    """An even product of unit vectors, acting exactly on spinors."""

    __slots__ = ("rep", "spinor_mat", "word")

    def __init__(self, rep: GammaRep, word: Sequence[tuple]):
        self.rep = rep
        self.word = tuple(tuple(v) for v in word)
        mat = clifford_mat(rep, self.word[0]) if self.word else identity(rep.s)
        for v in self.word[1:]:
            mat = times_clifford(mat, rep, v)
        self.spinor_mat = mat

    @classmethod
    def _derived(cls, rep: GammaRep, word: tuple, spinor_mat: Matrix) -> "SpinElement":
        """The element of ``word`` with its spinor matrix already computed,
        by ``__mul__`` or ``__neg__``, from elements whose matrices are those
        of their words."""
        out = cls.__new__(cls)
        out.rep, out.word, out.spinor_mat = rep, word, spinor_mat
        return out

    @classmethod
    def identity(cls, rep: GammaRep) -> "SpinElement":
        return cls(rep, ())

    @classmethod
    def minus_one(cls, rep: GammaRep) -> "SpinElement":
        e1 = (1,) + (0,) * (rep.n - 1)
        return cls(rep, (e1, e1))

    def __mul__(self, other: "SpinElement") -> "SpinElement":
        if self.rep.n != other.rep.n:
            raise ValueError("spin elements live over different dimensions")
        return SpinElement._derived(self.rep, self.word + other.word,
                                    self.spinor_mat @ other.spinor_mat)

    def __neg__(self) -> "SpinElement":
        """self * minus_one: the word gains (e1, e1), whose matrix is
        gamma_1 gamma_1 = -I (certified by ``build_gamma_rep``)."""
        e1 = (1,) + (0,) * (self.rep.n - 1)
        return SpinElement._derived(self.rep, self.word + (e1, e1), -self.spinor_mat)

    def is_central(self) -> bool:
        """True when the element is +-1, i.e. acts as a sign on spinors."""
        eye = identity(self.rep.s)
        return self.spinor_mat == eye or self.spinor_mat == eye.scaled(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinElement):
            return NotImplemented
        # the spinor action is faithful, so matrix equality is group equality
        return self.rep.n == other.rep.n and self.spinor_mat == other.spinor_mat

    def __repr__(self):
        return f"SpinElement(n={self.rep.n}, word_len={len(self.word)})"


def spin_from_unit_vectors(rep: GammaRep, vs: Sequence[Sequence]) -> SpinElement:
    """Build the Spin(n) element given by an even word of exact unit vectors."""
    word = tuple(tuple(v) for v in vs)
    if len(word) % 2:
        raise ValueError(f"word length {len(word)} is odd")
    for v in word:
        if len(v) != rep.n:
            raise ValueError(f"vector length {len(v)} != n = {rep.n}")
        # |v|^2 = 1 as an integer identity: with v = w / e, sum w_k^2 = e^2
        e = lcm(*(x.denominator for x in v))
        if sum((x.numerator * (e // x.denominator)) ** 2 for x in v) != e * e:
            raise ValueError(f"vector {v} has squared norm {vdot(v, v)} != 1")
    return SpinElement(rep, word)


def rho_n(a: SpinElement) -> RationalRotation:
    """The rotation induced by conjugation on vectors (the 2:1 covering).

    Conjugation by a unit vector v is w -> 2<v, w> v - w, so the rotation R
    of the word v1..vk is the product of the reflections 2 v v^T - I in word
    order, composed on integer numerators by ``_reflections``.  It is
    certified against the spinor matrix S by two identities, neither of
    which forms a matrix product:

    * intertwining, S gamma_alpha = C_alpha S for every alpha, where
      C_alpha = sum_beta R_beta,alpha gamma_beta is the Clifford action of
      column alpha, decided by ``linalg.intertwines``: S gamma_alpha moves
      S's columns and gamma_beta S its rows, and the n identities are
      compared at once on the moved integer numerators;
    * the norm, ||S||_F^2 = s, one pass over S's numerators.

    Together they give S gamma_alpha S^dagger = C_alpha for every alpha.
    ``RationalRotation`` certifies R^T R = I and det R = 1.  The C_alpha then
    satisfy the Clifford relations, so alpha -> C_alpha extends to an
    automorphism of the Clifford algebra, and it fixes the volume element
    because det R = 1.  Spin(n) covers SO(n), so R has a spin lift whose
    spinor matrix U is unitary with U gamma_alpha U^dagger = C_alpha.  If S
    intertwines, then U^dagger S commutes with every gamma_alpha; the gammas
    generate all of End(C^s) (the spinor module is irreducible), so by
    Schur's lemma U^dagger S = lambda Id and S = lambda U.  The intertwining
    alone accepts S = 2U and S = 0; the norm gives
    s = ||lambda U||_F^2 = |lambda|^2 s, so |lambda| = 1, S is unitary and
    S gamma_alpha S^dagger = |lambda|^2 U gamma_alpha U^dagger = C_alpha.
    Conversely the spinor matrix of the word is such a U, so a true element
    passes both.  The intertwining costs 2n gathers of S's 2 s^2 numerators,
    each scaled by one integer that packs an alpha per digit, where the
    products with S^dagger cost O(n s^3).
    """
    rep = a.rep
    mat = _reflections(a.word, rep.n)
    s_mat = a.spinor_mat
    if frobenius_sq(s_mat) != rep.s or not intertwines(s_mat, rep.cols, rep.phases, mat):
        raise ValueError("spinor matrix does not conjugate the gammas by "
                         "the rotation of its word")
    return RationalRotation(mat)


def _reflections(word: Sequence[tuple], n: int) -> Matrix:
    """The product of the reflections 2 v v^T - I over the word, in word order.

    The running product is kept as integer numerators R over one
    denominator.  For v = p / e with p integral, R (2 v v^T - I) is
    (2 (R p) p^T - e^2 R) / e^2, so each letter costs O(n^2) integer
    operations and no reflection matrix is formed.
    """
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    den = 1
    for v in word:
        e = lcm(*(x.denominator for x in v))
        p = [x.numerator * (e // x.denominator) for x in v]
        e2 = e * e
        new = []
        for r in rows:
            k = 2 * sum(map(mul, r, p))
            new.append([k * y - e2 * x for x, y in zip(r, p)])
        rows = new
        den *= e2
    return Matrix(rows).scaled(Fraction(1, den))


def spin_rotation_generator(rep: GammaRep, p: CirclePoint) -> SpinElement:
    """The element covering the rotation by the doubled angle of p.

    Built from the word (cos*e1 + sin*e2, e1); conjugation composes the two
    line reflections into the counterclockwise rotation by twice the angle of
    p in the (1, 2) plane, which is the covering's double-angle property.
    """
    if rep.n < 2:
        raise ValueError("need n >= 2")
    w = (p.c, p.d) + (0,) * (rep.n - 2)
    e1 = (1,) + (0,) * (rep.n - 1)
    return spin_from_unit_vectors(rep, (w, e1))


def so2_block(p: CirclePoint, n_rest: int) -> Matrix:
    """Rotation by p in the first coordinate plane, identity on the rest."""
    return givens(n_rest + 2, 0, 1, p)


class SpinCElement:
    """A class <phase, spin>; the pair with both signs flipped is the same element."""

    __slots__ = ("phase", "spin")

    def __init__(self, phase: CirclePoint, spin: SpinElement):
        self.phase = phase
        self.spin = spin

    def negated_representative(self) -> "SpinCElement":
        """The other (phase, spin) pair representing the same class."""
        return SpinCElement(-self.phase, -self.spin)

    def __mul__(self, other: "SpinCElement") -> "SpinCElement":
        return SpinCElement(self.phase * other.phase, self.spin * other.spin)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinCElement):
            return NotImplemented
        if self.phase == other.phase and self.spin == other.spin:
            return True
        return self.phase == -other.phase and self.spin == -other.spin

    def __repr__(self):
        return f"SpinCElement(phase=({self.phase.c}, {self.phase.d}), {self.spin!r})"


def rho_n_c(x: SpinCElement) -> RationalRotation:
    """Projection to SO(n); kills the phase, so it is class-well-defined."""
    return rho_n(x.spin)


def varsigma_n(x: SpinCElement) -> CirclePoint:
    """Projection to U(1): the squared phase (class-well-defined)."""
    return x.phase.square()


def gamma_c_mat(x: SpinCElement) -> Matrix:
    """Spinor matrix of a Spin^c class: phase times the spin matrix."""
    return x.spin.spinor_mat.scaled(x.phase.as_gaussian())


def gamma_c_act(x: SpinCElement, psi: Sequence) -> tuple:
    """Spinor action of a Spin^c class."""
    return gamma_c_mat(x).apply(psi)


def is_in_u1_subgroup(x: SpinCElement) -> bool:
    """Membership in the central circle {<p, 1>}."""
    return x.spin.is_central()


def is_in_spin_subgroup(x: SpinCElement) -> bool:
    """Membership in the subgroup {<+-1, a>}."""
    return x.phase.is_real()


def iota_embed(x: SpinCElement, big_rep: GammaRep) -> SpinElement:
    """Embed a Spin^c(n) class into Spin(n+2).

    The phase (c, d) lifts to the even element c + d*G1*G2 of the big Clifford
    algebra, realized as the two-vector word (e1, -c*e1 + d*e2); the spin part
    embeds on coordinates 3..n+2.  Both representatives of the class give the
    same element, and the induced rotation is block diagonal: the doubled
    phase angle on the first two coordinates, rho_n of the spin part on the
    rest.
    """
    n = x.spin.rep.n
    if big_rep.n != n + 2:
        raise ValueError(f"big rep has dimension {big_rep.n}, expected {n + 2}")
    e1 = (1,) + (0,) * (n + 1)
    partner = (-x.phase.c, x.phase.d) + (0,) * n
    word = [e1, partner]
    for v in x.spin.word:
        word.append((0, 0) + tuple(v))
    return spin_from_unit_vectors(big_rep, word)


# -- stabilizer groups of the base frame --------------------------------------

class PhaseTriple:
    """A class <t_phase, s_phase, spin> modulo the signs (-1,-1,1), (-1,1,-1).

    With the constraint t = +-s these classes form the stabilizer inside the
    covering of SO(2) x SO(n+2); without it, the stabilizer of the oriented
    plane downstairs.
    """

    __slots__ = ("t_phase", "s_phase", "spin")

    def __init__(self, t_phase: CirclePoint, s_phase: CirclePoint, spin: SpinElement):
        self.t_phase = t_phase
        self.s_phase = s_phase
        self.spin = spin

    def satisfies_compact_constraint(self) -> bool:
        return self.t_phase == self.s_phase or self.t_phase == -self.s_phase

    def __mul__(self, other: "PhaseTriple") -> "PhaseTriple":
        return PhaseTriple(self.t_phase * other.t_phase,
                           self.s_phase * other.s_phase,
                           self.spin * other.spin)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseTriple):
            return NotImplemented
        t, s, a = other.t_phase, other.s_phase, other.spin
        return ((self.t_phase == t and self.s_phase == s and self.spin == a)
                or (self.t_phase == -t and self.s_phase == -s and self.spin == a)
                or (self.t_phase == -t and self.s_phase == s and self.spin == -a)
                or (self.t_phase == t and self.s_phase == -s and self.spin == -a))

    def __repr__(self):
        return (f"PhaseTriple(({self.t_phase.c},{self.t_phase.d}), "
                f"({self.s_phase.c},{self.s_phase.d}), {self.spin!r})")


def _half_witness(p: CirclePoint) -> CirclePoint:
    w = p.half
    if w is None or w.square() != p:
        raise ValueError("circle point carries no exact half-angle witness")
    return w


def hsharp_forward(tr: PhaseTriple) -> Tuple[CirclePoint, SpinElement]:
    """<t, s, a> -> (rho_2(s), sign * a) where sign = t * conj(s) = +-1."""
    if not tr.satisfies_compact_constraint():
        raise ValueError("class constraint t = +-s violated")
    eps = tr.t_phase * tr.s_phase.conj()
    spin = tr.spin if eps == CIRCLE_ONE else -tr.spin
    return tr.s_phase.square(), spin


def hsharp_inverse(so2: CirclePoint, a: SpinElement) -> PhaseTriple:
    """(e^{is}, a) -> <e^{is/2}, e^{is/2}, a>; needs the half-angle witness."""
    w = _half_witness(so2)
    return PhaseTriple(w, w, a)


def hc_forward(tr: PhaseTriple) -> Tuple[CirclePoint, SpinCElement]:
    """<t, s, a> -> (rho_2(s), <s * conj(t), a>)."""
    return tr.s_phase.square(), SpinCElement(tr.s_phase * tr.t_phase.conj(), tr.spin)


def hc_inverse(so2: CirclePoint, x: SpinCElement) -> PhaseTriple:
    """(e^{iu}, <e^{iv}, a>) -> <e^{i(u/2 - v)}, e^{iu/2}, a>."""
    w = _half_witness(so2)
    return PhaseTriple(w * x.phase.conj(), w, x.spin)


# -- seeded samplers -----------------------------------------------------------

def random_spin(rep: GammaRep, rng: Random) -> SpinElement:
    """Seeded word of 2k unit vectors, k <= MAX_PAIRS (bounded entry growth)."""
    k = rng.randint(1, MAX_PAIRS)
    return spin_from_unit_vectors(rep, [unit_vector(rng, rep.n) for _ in range(2 * k)])


def random_spinc(rep: GammaRep, rng: Random) -> SpinCElement:
    # phases sampled as squares so half-angle witnesses exist downstream
    return SpinCElement(circle_point_with_half(rng), random_spin(rep, rng))


def random_phase_triple(rep: GammaRep, rng: Random, constrained: bool) -> PhaseTriple:
    s = circle_point(rng)
    if constrained:
        t = s if rng.random() < 0.5 else -s
    else:
        t = circle_point(rng)
    return PhaseTriple(t, s, random_spin(rep, rng))
