"""Exact verification of the 2-Dirac symbol complex over 2-plane Grassmannians.

The package constructs, in exact rational arithmetic, the spinor Clifford
generators, the spin and spin^c groups with their covering maps, the
contact-graded orthogonal algebra, the Stiefel contact geometry of
orthonormal 2-frames, and the three-step symbol sequence of the descended
operator complex, then machine-checks every computable identity: grading
closure, Heisenberg nondegeneracy, covering and stabilizer isomorphisms, the
complex property, symbol exactness (ellipticity) at every sampled covector,
and the vanishing symbol-level index.
"""

__version__ = "0.1.0"

from .clifford import CLIFFORD_SIGN, GammaRep, build_gamma_rep, clifford_mat
from .scalars import CirclePoint, GaussianRational, gr
from .symbols import (Covector, ellipticity_scan, exactness_report,
                      symbol_triple, weight_table)

__all__ = [
    "__version__",
    "CLIFFORD_SIGN", "GammaRep", "build_gamma_rep", "clifford_mat",
    "CirclePoint", "GaussianRational", "gr",
    "Covector", "ellipticity_scan", "exactness_report", "symbol_triple",
    "weight_table",
]
