"""Trace-based covering map: the test oracle for ``twodirac.spin.rho_n``.

Recovers the rotation of a spin element from its spinor matrix alone.  The
conjugate ``S gamma_alpha S^dagger`` is expanded in the gamma basis through
the trace pairing (``tr(gamma_beta gamma_alpha) = CLIFFORD_SIGN * s *
delta``), every coefficient must be real, and the expansion must rebuild the
conjugate exactly.  It never reads the element's word, so it shares no
route with the word-based map it checks.
"""

from fractions import Fraction

from twodirac.clifford import CLIFFORD_SIGN
from twodirac.linalg import Matrix, zeros
from twodirac.scalars import GaussianRational
from twodirac.spin import RationalRotation, SpinElement


def rho_n(a: SpinElement) -> RationalRotation:
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
            # a trace reads as a GaussianRational exactly when it is not real
            if type(t) is GaussianRational:
                raise ValueError("conjugation left the span of the gamma matrices")
            col.append(t * scale)
        cols.append(col)
        recon = zeros(rep.s, rep.s)
        for beta, coeff in enumerate(col):
            if coeff:
                recon = recon + rep.gammas[beta].scaled(GaussianRational(coeff))
        if recon != conj:
            raise ValueError("conjugation left the span of the gamma matrices")
    return RationalRotation(Matrix(cols).transpose())
