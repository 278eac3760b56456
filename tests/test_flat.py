from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.clifford import build_gamma_rep
from twodirac.flat import (PolySpinorField, apply_flat_2dirac, linear_power_field,
                           symbol_cross_check)
from twodirac.linalg import Matrix, identity
from twodirac.report import run_check
from twodirac.scalars import GaussianRational, gr
from twodirac.symbols import Covector, random_covector, sigma1

import reference_flat
import reference_gammas
from strategies import gaussians, rationals, small_ints, vectors

REP3 = build_gamma_rep(3)
PSI0 = identity(REP3.s).col(0)
GAMMA1_PSI0 = reference_gammas.gammas(3)[0].apply(PSI0)
E11 = (1, 0, 0, 0, 0, 0)


def total_degrees(f: PolySpinorField) -> set:
    return {sum(mi) for mi in reference_flat.terms(f)}


def test_field_construction_and_normalization():
    f = PolySpinorField(3, [(0,) * 6, E11], Matrix([[0, 0], [1, 0]]))
    assert f.s == 2 and not f.is_zero()
    # a zero row is kept, and the field equals the one without it
    assert f == PolySpinorField(3, [E11], Matrix([[1, 0]]))
    assert PolySpinorField(3, [E11], Matrix([[0, 0]])).is_zero()
    with pytest.raises(ValueError):
        PolySpinorField(3, [(0, 0, 0)], Matrix([[1, 0]]))  # arity mismatch
    with pytest.raises(ValueError):
        PolySpinorField(3, [(-1, 0, 0, 0, 0, 1)], Matrix([[1, 0]]))  # negative exponent
    with pytest.raises(ValueError):
        PolySpinorField(3, [E11], Matrix([[1, 0], [0, 1]]))  # rows != monomials
    with pytest.raises(ValueError):
        PolySpinorField(3, [E11, E11], Matrix([[1, 0], [0, 1]]))  # repeated monomial
    with pytest.raises(ValueError):
        linear_power_field(REP3, Covector((1, 0, 0), (0, 0, 0)), 1, (1, 0, 0))  # spinor length


def test_field_algebra():
    f = PolySpinorField.constant(3, PSI0)
    g = f.scaled(Fraction(2))
    assert (f + f) == g
    assert (g - f) == f
    assert (f - f).is_zero()
    assert f.scaled(-1) + f == f - f and f.scaled(-1) != f
    h = linear_power_field(REP3, Covector((1, 0, 0), (0, 0, 0)), 1, PSI0)
    assert h == PolySpinorField(3, [E11], Matrix([PSI0]))
    assert h != f and not (h - f).is_zero()


def test_constant_fields_are_killed():
    p1, p2 = apply_flat_2dirac(REP3, PolySpinorField.constant(3, PSI0))
    assert p1.is_zero() and p2.is_zero()


def test_single_monomial_example():
    # f = x_{1,1} psi0 differentiates to (gamma_1 psi0, 0)
    f = PolySpinorField(3, [E11], Matrix([PSI0]))
    p1, p2 = apply_flat_2dirac(REP3, f)
    assert p1 == PolySpinorField.constant(3, GAMMA1_PSI0)
    assert p2.is_zero()
    # the second slot sees the second coordinate block
    g = PolySpinorField(3, [(0, 0, 0, 1, 0, 0)], Matrix([PSI0]))
    p1, p2 = apply_flat_2dirac(REP3, g)
    assert p1.is_zero()
    assert p2 == PolySpinorField.constant(3, GAMMA1_PSI0)


def test_degree_drop_on_homogeneous_input():
    xi = Covector((1, 2, 0), (0, 1, 1))
    f = linear_power_field(REP3, xi, 3, PSI0)
    assert total_degrees(f) == {3}
    p1, p2 = apply_flat_2dirac(REP3, f)
    assert total_degrees(p1) <= {2}
    assert total_degrees(p2) <= {2}


def test_linearity():
    rng = Random(0)
    for _ in range(25):
        f = linear_power_field(REP3, random_covector(3, rng), rng.randint(1, 3), PSI0)
        g = linear_power_field(REP3, random_covector(3, rng), rng.randint(1, 3), PSI0)
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        lhs = apply_flat_2dirac(REP3, f.scaled(a) + g)
        rf = apply_flat_2dirac(REP3, f)
        rg = apply_flat_2dirac(REP3, g)
        for got, pf, pg in zip(lhs, rf, rg):
            assert got == pf.scaled(a) + pg


def test_degree_one_kernel_is_trivial():
    # scalar coefficients c_{i,alpha} on a fixed spinor: in the kernel only
    # when every coefficient vanishes, by invertibility of the vector action
    rng = Random(1)
    for _ in range(25):
        coeffs = [rng.randint(-5, 5) for _ in range(6)]
        f = PolySpinorField(3, identity(6).rows,
                            Matrix((c,) for c in coeffs) @ Matrix([PSI0]))
        p1, p2 = apply_flat_2dirac(REP3, f)
        if any(coeffs):
            assert not (p1.is_zero() and p2.is_zero())
        else:
            assert p1.is_zero() and p2.is_zero()


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
    p1, p2 = apply_flat_2dirac(REP3, f)
    stacked = sigma1(REP3, xi).apply(PSI0)
    lead1 = tuple(k * c for c in stacked[:2])
    lead2 = tuple(k * c for c in stacked[2:])
    assert p1 == linear_power_field(REP3, xi, k - 1, lead1)
    assert p2 == linear_power_field(REP3, xi, k - 1, lead2)


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


def test_operator_refuses_a_field_of_another_arity():
    f = PolySpinorField.constant(3, PSI0)
    with pytest.raises(ValueError, match="arity"):
        apply_flat_2dirac(build_gamma_rep(4), f)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_operations_match_dict_oracle(data):
    """Power fields, sums, scalings and the operator against the
    dict-of-tuples oracle, monomial by monomial, zero rows ignored."""
    n = data.draw(st.integers(3, 5))
    rep = build_gamma_rep(n)
    entries = data.draw(st.sampled_from((small_ints, gaussians(small_ints))))

    def power_fields():
        xi = Covector(*(data.draw(vectors(small_ints, n)) for _ in range(2)))
        k = data.draw(st.integers(0, 5))
        psi = data.draw(vectors(entries, rep.s))
        got = linear_power_field(rep, xi, k, psi)
        want = reference_flat.linear_power_field(rep, xi, k, psi)
        assert reference_flat.terms(got) == want.coeffs
        return got, want

    (f, rf), (g, rg) = power_fields(), power_fields()
    c = data.draw(st.one_of(small_ints, gaussians(small_ints), rationals(3, 4)))
    total, rtotal = f.scaled(c) + g, rf.scaled(c) + rg
    assert reference_flat.terms(total) == rtotal.coeffs
    got = apply_flat_2dirac(rep, total)
    for part, want in zip(got, reference_flat.apply_flat_2dirac(rep, rtotal)):
        assert reference_flat.terms(part) == want.coeffs


def test_fields_build_no_gaussian_rational(monkeypatch):
    """Fields work on numerators: powers, sums, scalings, comparisons and the
    operator construct no GaussianRational, on Gaussian spinors too.  The
    flat suite then reads back only sigma1(xi) psi0, 2s scalars per sample."""
    rep = build_gamma_rep(4)
    xi = Covector((1, -2, 0, 3), (0, 1, 1, -1))
    psi, c = (gr(1, 2), 0, gr(-3), gr(0, 1)), gr(Fraction(1, 2), 1)
    count = [0]
    init = GaussianRational.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussianRational, "__init__", counted)
    f = linear_power_field(rep, xi, 4, psi)
    p1, p2 = apply_flat_2dirac(rep, f.scaled(c) + f)
    assert p1 == p1.scaled(2) - p1 and not (p2 - f).is_zero()
    assert count[0] == 0
    samples = 5
    assert run_check("flat-dirac", 4, samples, 7, "exact").passed
    assert count[0] <= samples * 2 * rep.s
