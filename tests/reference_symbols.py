"""Oracles for ``twodirac.symbols``: the literal second symbol, and the
complex check and exact ranks by dense products and three eliminations.

``sigma2`` = [[-M2 M1, M1 M1], [-M2 M2, M1 M2]], each block a dense product
of the letters M_i = sum_a X_i[a] gamma_a over the dense oracle gammas of
``reference_words``.  It uses no Clifford relation and never reads the
signed-permutation storage, so it shares no route with the one scatter
product and the scalar blocks it checks.

``complex_check`` and ``exactness_report`` are the route the symbols took
before their adjoint identities: both products s2 s1 and s3 s2 formed and
tested, and all three ranks eliminated.  They read the symbols through the
``symbols`` module's builders at call time, so a patched builder reaches
the oracle and the route under test alike.
"""

from twodirac import symbols
from twodirac.linalg import Matrix, block, rank
from twodirac.symbols import ExactnessReport

import reference_words


def sigma2(n: int, x) -> Matrix:
    m1 = reference_words.clifford_matrix(n, x.x1)
    m2 = reference_words.clifford_matrix(n, x.x2)
    return block([[-(m2 @ m1), m1 @ m1],
                  [-(m2 @ m2), m1 @ m2]])


def complex_check(s1: Matrix, s2: Matrix, s3: Matrix) -> None:
    """Raise as ``SymbolTriple`` does unless s2 s1 = 0 and s3 s2 = 0, by
    two dense products."""
    if not (s2 @ s1).is_zero():
        raise AssertionError("s2 @ s1 != 0: complex property violated")
    if not (s3 @ s2).is_zero():
        raise AssertionError("s3 @ s2 != 0: complex property violated")


def triple(rep, x):
    """The three symbols of x as ``symbol_triple`` assembles them, checked
    by ``complex_check``."""
    s1, s2, s3 = symbols.symbol_matrices(rep, x)
    complex_check(s1, s2, s3)
    return s1, s2, s3


def exactness_report(rep, x) -> ExactnessReport:
    """The exact-mode report with every rank eliminated."""
    if x.is_zero():
        raise ValueError("exactness is only defined for nonzero covectors")
    s1, s2, s3 = triple(rep, x)
    return ExactnessReport(rep.s, rank(s1), rank(s2), rank(s3))
