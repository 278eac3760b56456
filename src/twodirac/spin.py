"""Spin(n), Spin^c(n), their projections to rotations, and the stabilizer maps.

Group elements are stored as exact spinor matrices together with the
generating word of rational unit vectors; the induced rotation is recovered
by conjugating the Clifford generators.  The gammas are anti-hermitian (the
gamma build certifies it), so the spinor matrix S of a word of unit vectors
is unitary and its inverse is the adjoint S^dagger; no inverse is computed
or stored.  With the package convention ``v.v = -|v|^2``, the word
``(e1, e1)`` realizes the nontrivial central element (acting as ``-Id`` on
spinors) and ``(e1, -e1)`` is the identity.

Spin^c classes are pairs ``(phase, spin)`` modulo the simultaneous sign flip;
phases are exact rational circle points, and the half-angle data required by
the inverse stabilizer maps is carried as a witness on the point itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Optional, Sequence, Tuple

from .clifford import CLIFFORD_SIGN, GammaRep, clifford_mat
from .linalg import Matrix, det, identity_g, identity_q, vdot, zeros_g
from .scalars import CIRCLE_ONE, CirclePoint, GaussianRational
from .sampling import circle_point, circle_point_with_half, givens, unit_vector


@dataclass(frozen=True)
class RationalRotation:
    """Exact special orthogonal matrix."""

    mat: Matrix

    def __post_init__(self):
        m = self.mat
        if m.nrows != m.ncols:
            raise ValueError("rotation matrix must be square")
        if m.transpose() @ m != identity_q(m.nrows):
            raise ValueError("matrix is not orthogonal")
        if det(m) != 1:
            raise ValueError("matrix has determinant != 1")

    def __matmul__(self, other: "RationalRotation") -> "RationalRotation":
        return RationalRotation(self.mat @ other.mat)

    @property
    def k(self) -> int:
        return self.mat.nrows


class SpinElement:
    """An even product of unit vectors, acting exactly on spinors."""

    __slots__ = ("rep", "spinor_mat", "word")

    def __init__(self, rep: GammaRep, word: Sequence[tuple],
                 spinor_mat: Optional[Matrix] = None):
        self.rep = rep
        self.word = tuple(tuple(v) for v in word)
        if spinor_mat is None:
            spinor_mat = identity_g(rep.s)
            for v in self.word:
                spinor_mat = spinor_mat @ clifford_mat(rep, v)
        self.spinor_mat = spinor_mat

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
        return SpinElement(self.rep, self.word + other.word,
                           self.spinor_mat @ other.spinor_mat)

    def __neg__(self) -> "SpinElement":
        return self * SpinElement.minus_one(self.rep)

    def inverse(self) -> "SpinElement":
        # (v1..vk)^-1 = (-vk)..(-v1) for unit v, and the spinor matrix of -v
        # is the adjoint of that of v because every gamma is anti-hermitian
        word = tuple(tuple(-x for x in v) for v in reversed(self.word))
        return SpinElement(self.rep, word, self.spinor_mat.adjoint())

    def is_central(self) -> bool:
        """True when the element is +-1, i.e. acts as a sign on spinors."""
        eye = identity_g(self.rep.s)
        return self.spinor_mat == eye or self.spinor_mat == eye.scaled(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinElement):
            return NotImplemented
        # the spinor action is faithful, so matrix equality is group equality
        return self.rep.n == other.rep.n and self.spinor_mat == other.spinor_mat

    def __hash__(self):
        return hash((self.rep.n, self.spinor_mat))

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
        if vdot(v, v) != 1:
            raise ValueError(f"vector {v} has squared norm {vdot(v, v)} != 1")
    return SpinElement(rep, word)


def rho_n(a: SpinElement) -> RationalRotation:
    """The rotation induced by conjugation on vectors (the 2:1 covering)."""
    rep = a.rep
    scale = Fraction(1, CLIFFORD_SIGN * rep.s)
    # the spinor matrix of a word of unit vectors is unitary: S^-1 = S^dagger
    s_inv = a.spinor_mat.adjoint()
    cols = []
    for alpha in range(rep.n):
        conj = a.spinor_mat @ rep.gammas[alpha] @ s_inv
        col = []
        for beta in range(rep.n):
            t = (rep.gammas[beta] @ conj).trace()
            if not t.is_real():
                raise ValueError("conjugation left the span of the gamma matrices")
            col.append(t.re * scale)
        cols.append(col)
        recon = zeros_g(rep.s, rep.s)
        for beta, coeff in enumerate(col):
            if coeff:
                recon = recon + rep.gammas[beta].scaled(GaussianRational(coeff))
        if recon != conj:
            raise ValueError("conjugation left the span of the gamma matrices")
    return RationalRotation(Matrix(cols).transpose())


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

    @classmethod
    def identity(cls, rep: GammaRep) -> "SpinCElement":
        return cls(CIRCLE_ONE, SpinElement.identity(rep))

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

    def __hash__(self):
        # class-invariant: both representatives hash alike
        neg = self.negated_representative()
        return hash((self.phase, self.spin)) ^ hash((neg.phase, neg.spin))

    def __repr__(self):
        return f"SpinCElement(phase=({self.phase.c}, {self.phase.d}), {self.spin!r})"


def spinc_equal(x: SpinCElement, y: SpinCElement) -> bool:
    if x.spin.rep.n != y.spin.rep.n:
        raise ValueError("elements live over different dimensions")
    return x == y


def rho_n_c(x: SpinCElement) -> RationalRotation:
    """Projection to SO(n); kills the phase, so it is class-well-defined."""
    return rho_n(x.spin)


def varsigma_n(x: SpinCElement) -> CirclePoint:
    """Projection to U(1): the squared phase (class-well-defined)."""
    return x.phase.square()


def gamma_c_act(x: SpinCElement, psi: Sequence) -> tuple:
    """Spinor action of a Spin^c class: phase times the spin action."""
    if len(psi) != x.spin.rep.s:
        raise ValueError(f"spinor length {len(psi)} != s = {x.spin.rep.s}")
    p = x.phase.as_gaussian()
    return tuple(p * c for c in x.spin.spinor_mat.apply(psi))


def gamma_c_mat(x: SpinCElement) -> Matrix:
    return x.spin.spinor_mat.scaled(x.phase.as_gaussian())


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

    def __hash__(self):
        raise TypeError("PhaseTriple is unhashable; compare classes with ==")

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
    spin = tr.spin if eps.is_one() else -tr.spin
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

def random_spin(rep: GammaRep, rng: Random, max_pairs: int = 3) -> SpinElement:
    """Seeded word of 2k unit vectors, k <= max_pairs (bounded entry growth)."""
    k = rng.randint(1, max_pairs)
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
