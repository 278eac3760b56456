"""Two oracles for the covering map ``twodirac.spin.rho_n``.

``rho_by_trace`` recovers the rotation of a spin element from its spinor
matrix alone.  The conjugate ``S gamma_alpha S^dagger`` is expanded in the
gamma basis through the trace pairing (``tr(gamma_beta gamma_alpha) =
CLIFFORD_SIGN * s * delta``), every coefficient must be real, and the
expansion must rebuild the conjugate exactly.  It never reads the element's
word, so it shares no route with the word-based map it checks.

``rho_by_products`` is the product route: it composes the word's rotation R
letter by letter in ``Fraction`` arithmetic and checks
``S gamma_alpha S^dagger = sum_beta R_beta,alpha gamma_beta`` for every alpha
by dense products with the dense generators of ``reference_gammas``, with
no scatter kernel.
"""

from fractions import Fraction

from twodirac.clifford import CLIFFORD_SIGN
from twodirac.linalg import Matrix, vdot, zeros
from twodirac.scalars import GaussianRational
from twodirac.spin import RationalRotation, SpinElement

import reference_gammas


def rho_by_trace(a: SpinElement) -> RationalRotation:
    rep = a.rep
    scale = Fraction(1, CLIFFORD_SIGN * rep.s)
    # the spinor matrix of a word of unit vectors is unitary: S^-1 = S^dagger
    s_inv = a.spinor_mat.adjoint()
    gammas = reference_gammas.gammas(rep.n)
    cols = []
    for alpha in range(rep.n):
        conj = a.spinor_mat @ gammas[alpha] @ s_inv
        col = []
        for beta in range(rep.n):
            prod = gammas[beta] @ conj
            t = sum((prod[i, i] for i in range(rep.s)), GaussianRational(0))
            if t.im:
                raise ValueError("conjugation left the span of the gamma matrices")
            col.append(t.re * scale)
        cols.append(col)
        recon = zeros(rep.s, rep.s)
        for beta, coeff in enumerate(col):
            if coeff:
                recon = recon + gammas[beta].scaled(GaussianRational(coeff))
        if recon != conj:
            raise ValueError("conjugation left the span of the gamma matrices")
    return RationalRotation(Matrix(cols).transpose())


def word_rotation(word, n: int) -> Matrix:
    """The rotation of a word of unit vectors, in ``Fraction`` arithmetic.

    Conjugation by a single unit vector v fixes v and negates its orthogonal
    complement, i.e. w -> 2<v, w>v - w; for a word the maps compose with the
    last letter acting first.
    """
    cols = []
    for k in range(n):
        w = tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
        for v in reversed(word):
            c = 2 * vdot(v, w)
            w = tuple(c * a - b for a, b in zip(v, w))
        cols.append(w)
    return Matrix(cols).transpose()


def rho_by_products(a: SpinElement) -> RationalRotation:
    rep = a.rep
    rot = word_rotation(a.word, rep.n)
    s_adj = a.spinor_mat.adjoint()
    gammas = reference_gammas.gammas(rep.n)
    for alpha in range(rep.n):
        conj = a.spinor_mat @ gammas[alpha] @ s_adj
        image = zeros(rep.s, rep.s)
        for beta, g in enumerate(gammas):
            image = image + g.scaled(rot[beta, alpha])
        if conj != image:
            raise ValueError("spinor matrix does not conjugate the gammas by "
                             "the rotation of its word")
    return RationalRotation(rot)
