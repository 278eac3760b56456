"""The package's records are ``typing.NamedTuple``s and its validated values
``__slots__`` classes whose ``__init__`` validates.  Their reprs (which
failure records print), equalities, hashes and refusals are pinned here;
the repr strings are those the earlier frozen dataclasses printed."""

from fractions import Fraction

import pytest

from twodirac.clifford import GammaRep, build_gamma_rep
from twodirac.flat import PairField, PolySpinorField
from twodirac.graded import GradedElement
from twodirac.linalg import Matrix, identity, submatrix, zeros
from twodirac.scalars import CirclePoint
from twodirac.spin import RationalRotation
from twodirac.stiefel import Frame2, OrientedPlane, StiefelTangent
from twodirac.symbols import (Covector, ExactnessReport, ScanFailure, ScanReport,
                              SymbolTriple, symbol_matrices, weight_table)

X = Covector((1, -2, 0), (0, 3, 1))
Y = Covector((Fraction(1, 2), 0, 0), (0, Fraction(-3, 4), 1))
SCAN = ScanReport(3, 10, 7, "exact", checked=12, passed=False,
                  failures=(ScanFailure(X, ExactnessReport(2, 1, 2, 1)),
                            ScanFailure(Y, None, "K s2 is not hermitian")))


def test_reprs_match_the_dataclass_reprs():
    assert repr(X) == "Covector(x1=(1, -2, 0), x2=(0, 3, 1))"
    assert repr(Y) == "Covector(x1=(Fraction(1, 2), 0, 0), x2=(0, Fraction(-3, 4), 1))"
    assert repr(SCAN) == (
        "ScanReport(n=3, samples=10, seed=7, mode='exact', checked=12, passed=False, "
        "failures=(ScanFailure(covector=Covector(x1=(1, -2, 0), x2=(0, 3, 1)), "
        "report=ExactnessReport(s=2, rank1=1, rank2=2, rank3=1), error=''), "
        "ScanFailure(covector=Covector(x1=(Fraction(1, 2), 0, 0), "
        "x2=(0, Fraction(-3, 4), 1)), report=None, error='K s2 is not hermitian')))")
    assert repr(ScanReport(3, 10, 7, "float", checked=12, passed=True)) == (
        "ScanReport(n=3, samples=10, seed=7, mode='float', checked=12, passed=True, "
        "failures=())")


def test_circle_point_half_is_provenance_only():
    p = CirclePoint(Fraction(3, 5), Fraction(4, 5))
    sq, plain = p.square(), CirclePoint(Fraction(-7, 25), Fraction(24, 25))
    assert sq.half == p and plain.half is None
    assert sq == plain and hash(sq) == hash(plain) and sq != p
    assert repr(sq) == repr(plain) == "CirclePoint(c=Fraction(-7, 25), d=Fraction(24, 25))"


def _frame():
    return Frame2(submatrix(identity(5), 0, 5, 0, 2))


def test_stiefel_tangents_compare_by_base_and_matrix():
    # W = (e3 | e4) at F = (e1 | e2), as two separately built copies
    t, u = (StiefelTangent(_frame(), submatrix(identity(5), 0, 5, 2, 4)) for _ in range(2))
    assert t.base is not u.base and t.mat is not u.mat
    assert t == u and t.pairing == zeros(2, 2)
    assert t != StiefelTangent(_frame(), t.mat.scaled(2))


def _rebuilt_gamma_rep(n):
    rep = build_gamma_rep(n)
    return GammaRep(n=rep.n, s=rep.s, cols=rep.cols, phases=rep.phases)


@pytest.mark.parametrize("make", [
    lambda: Covector((1, -2, 0), (0, 3, 1)),
    lambda: Covector((Fraction(1, 2), 0, 0), (0, Fraction(-3, 4), 1)),
    lambda: CirclePoint(Fraction(3, 5), Fraction(-4, 5)),
    lambda: _rebuilt_gamma_rep(3),
    lambda: ExactnessReport(2, 2, 2, 2),
    lambda: ScanFailure(Covector((1,), (0,)), None, "s2 @ s1 != 0"),
    lambda: ScanReport(3, 10, 7, "exact", checked=12, passed=True),
    lambda: weight_table(3)],
    ids=["Covector", "Covector-fractions", "CirclePoint", "GammaRep",
         "ExactnessReport", "ScanFailure", "ScanReport", "WeightTable"])
def test_hashable_values_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


def _field(n, s):
    return PolySpinorField.constant(n, identity(s).col(0))


def _triple_with(i, m):
    """The symbols of a covector at n = 3 with symbol i replaced by m(symbol)."""
    triple = list(symbol_matrices(build_gamma_rep(3), Covector((1, 2, 0), (0, 1, 3))))
    triple[i] = m(triple[i])
    return triple


@pytest.mark.parametrize("build, error, match", [
    (lambda: Covector((1, 0), (0, 0, 0)), ValueError, "different lengths"),
    (lambda: CirclePoint(Fraction(1, 2), Fraction(1, 2)), ValueError, "unit circle"),
    (lambda: GradedElement(2, zeros(6, 6)), ValueError, "need n >= 3"),
    (lambda: GradedElement(4, identity(7)), ValueError, "shape"),
    (lambda: GradedElement(4, identity(8)), ValueError, "orthogonal algebra"),
    (lambda: RationalRotation(Matrix([[1, 0]])), ValueError, "square"),
    (lambda: RationalRotation(Matrix([[1, 1], [0, 1]])), ValueError, "not orthogonal"),
    (lambda: RationalRotation(Matrix([[0, 1], [1, 0]])), ValueError, "determinant"),
    (lambda: Frame2(Matrix([[1, 1]] + [[0, 0]] * 4)), ValueError, "orthonormal"),
    (lambda: StiefelTangent(_frame(), zeros(6, 2)), ValueError, "shape"),
    (lambda: StiefelTangent(_frame(), submatrix(identity(5), 0, 5, 0, 2)), ValueError,
     "linearized"),
    (lambda: OrientedPlane(identity(5)), ValueError, "unit 2-vector"),
    (lambda: PairField(_field(3, 2), _field(4, 4)), ValueError, "arity"),
    (lambda: SymbolTriple(*_triple_with(1, lambda m: identity(m.nrows))), AssertionError,
     "s2 @ s1"),
    (lambda: SymbolTriple(*_triple_with(2, lambda m: -m)), AssertionError,
     "s1\\^dagger K"),
], ids=["Covector", "CirclePoint", "GradedElement-n", "GradedElement-shape",
        "GradedElement-mirror", "RationalRotation-square", "RationalRotation-orthogonal",
        "RationalRotation-det", "Frame2", "StiefelTangent-shape", "StiefelTangent-linear",
        "OrientedPlane", "PairField", "SymbolTriple-product", "SymbolTriple-adjoint"])
def test_validating_constructors_refuse_bad_input(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_a_rotation_is_certified_once_per_construction(monkeypatch):
    calls = []
    certify = RationalRotation.__post_init__
    monkeypatch.setattr(RationalRotation, "__post_init__",
                        lambda self: calls.append(certify(self)))
    r = RationalRotation(Matrix([[0, -1], [1, 0]]))
    assert calls == [None] and r.mat == Matrix([[0, -1], [1, 0]])
