from fractions import Fraction
from random import Random

import pytest

from twodirac.clifford import build_gamma_rep
from twodirac.flat import (PairField, PolySpinorField, apply_flat_2dirac,
                           linear_power_field, symbol_cross_check)
from twodirac.linalg import identity
from twodirac.scalars import GaussianRational
from twodirac.symbols import Covector, random_covector, sigma1

REP3 = build_gamma_rep(3)
PSI0 = identity(REP3.s).col(0)


def total_degrees(f: PolySpinorField) -> set:
    return {sum(mi) for mi in f.coeffs}


def test_field_construction_and_normalization():
    f = PolySpinorField(3, 2, {(0,) * 6: (0, 0), (1, 0, 0, 0, 0, 0): (1, 0)})
    assert len(f.coeffs) == 1  # zero terms dropped
    with pytest.raises(ValueError):
        PolySpinorField(3, 2, {(0, 0, 0): (1, 0)})  # arity mismatch
    with pytest.raises(ValueError):
        PolySpinorField(3, 2, {(0,) * 6: (1, 0, 0)})  # spinor length


def test_field_algebra():
    f = PolySpinorField.constant(3, PSI0)
    g = f.scaled(Fraction(2))
    assert (f + f) == g
    assert (g - f) == f
    assert (f - f).is_zero()
    h = f.mul_linear((1, 0, 0, 0, 0, 0))
    assert h.diff(0) == f
    assert h.diff(1).is_zero()


def test_constant_fields_are_killed():
    out = apply_flat_2dirac(REP3, PolySpinorField.constant(3, PSI0))
    assert out.p1.is_zero() and out.p2.is_zero()


def test_single_monomial_example():
    # f = x_{1,1} psi0 differentiates to (gamma_1 psi0, 0)
    f = PolySpinorField(3, 2, {(1, 0, 0, 0, 0, 0): PSI0})
    out = apply_flat_2dirac(REP3, f)
    assert out.p1 == PolySpinorField.constant(3, REP3.gammas[0].apply(PSI0))
    assert out.p2.is_zero()
    # the second slot sees the second coordinate block
    g = PolySpinorField(3, 2, {(0, 0, 0, 1, 0, 0): PSI0})
    out = apply_flat_2dirac(REP3, g)
    assert out.p1.is_zero()
    assert out.p2 == PolySpinorField.constant(3, REP3.gammas[0].apply(PSI0))


def test_degree_drop_on_homogeneous_input():
    xi = Covector((1, 2, 0), (0, 1, 1))
    f = linear_power_field(REP3, xi, 3, PSI0)
    assert total_degrees(f) == {3}
    out = apply_flat_2dirac(REP3, f)
    assert total_degrees(out.p1) <= {2}
    assert total_degrees(out.p2) <= {2}


def test_linearity():
    rng = Random(0)
    for _ in range(25):
        f = linear_power_field(REP3, random_covector(3, rng), rng.randint(1, 3), PSI0)
        g = linear_power_field(REP3, random_covector(3, rng), rng.randint(1, 3), PSI0)
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        lhs = apply_flat_2dirac(REP3, f.scaled(a) + g)
        rf = apply_flat_2dirac(REP3, f)
        rg = apply_flat_2dirac(REP3, g)
        assert lhs.p1 == rf.p1.scaled(a) + rg.p1
        assert lhs.p2 == rf.p2.scaled(a) + rg.p2


def test_degree_one_kernel_is_trivial():
    # scalar coefficients c_{i,alpha} on a fixed spinor: in the kernel only
    # when every coefficient vanishes, by invertibility of the vector action
    rng = Random(1)
    for _ in range(25):
        coeffs = [rng.randint(-5, 5) for _ in range(6)]
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                mi = tuple(1 if i == j else 0 for i in range(6))
                terms[mi] = tuple(c * p for p in PSI0)
        f = PolySpinorField(3, 2, terms)
        out = apply_flat_2dirac(REP3, f)
        if any(coeffs):
            assert not (out.p1.is_zero() and out.p2.is_zero())
        else:
            assert out.p1.is_zero() and out.p2.is_zero()


def test_cross_check_examples():
    assert symbol_cross_check(REP3, Covector((1, 0, 0), (0, 1, 0)), 1, PSI0)
    assert symbol_cross_check(REP3, Covector((0, 1, 0), (0, 0, 0)), 4, PSI0)
    with pytest.raises(ValueError):
        symbol_cross_check(REP3, Covector((1, 0, 0), (0, 0, 0)), 0, PSI0)
    with pytest.raises(ValueError):
        symbol_cross_check(REP3, Covector((0, 0, 0), (0, 0, 0)), 1, PSI0)


def test_cross_check_matches_manual_expansion():
    xi = Covector((1, 1, 0), (0, 2, 0))
    k = 3
    f = linear_power_field(REP3, xi, k, PSI0)
    out = apply_flat_2dirac(REP3, f)
    stacked = sigma1(REP3, xi).apply(PSI0)
    lead1 = tuple(k * c for c in stacked[:2])
    lead2 = tuple(k * c for c in stacked[2:])
    assert out.p1 == linear_power_field(REP3, xi, k - 1, lead1)
    assert out.p2 == linear_power_field(REP3, xi, k - 1, lead2)


def test_cross_check_seeded():
    rng = Random(2)
    rep4 = build_gamma_rep(4)
    for rep in (REP3, rep4):
        for _ in range(30):
            xi = random_covector(rep.n, rng)
            k = rng.randint(1, 5)
            psi = tuple(rng.randint(-4, 4) for _ in range(rep.s))
            if not any(psi):
                psi = identity(rep.s).col(0)
            assert symbol_cross_check(rep, xi, k, psi)


def test_pair_field_validation():
    f = PolySpinorField.constant(3, PSI0)
    g = PolySpinorField.constant(4, identity(4).col(0))
    with pytest.raises(ValueError):
        PairField(f, g)
    with pytest.raises(ValueError):
        apply_flat_2dirac(build_gamma_rep(4), f)


def _entries(f):
    return [x for v in f.coeffs.values() for x in v]


def test_integer_fields_stay_integral():
    # an integer field meets a GaussianRational only through an odd-phase gamma
    rep = build_gamma_rep(4)
    psi = (3, 0, -2, 1)
    f = linear_power_field(rep, Covector((1, 2, 0, 1), (0, -1, 1, 3)), 3, psi)
    for g in (f, f.diff(0), f.diff(5), f.scaled(-2), f.mul_linear((1,) * 8)):
        assert g.coeffs and all(type(x) is int for x in _entries(g))
    for alpha in range(rep.n):
        turned = f.gamma_apply(rep, alpha)
        odd = any(k % 2 for k in rep.phases[alpha])
        assert any(type(x) is GaussianRational for x in _entries(turned)) == odd
        if not odd:
            assert all(type(x) is int for x in _entries(turned))
    # some gamma at n = 4 has only even phases, so the integral branch ran
    assert any(not any(k % 2 for k in p) for p in rep.phases)
