from fractions import Fraction
from random import Random

import pytest

from twodirac.clifford import CLIFFORD_SIGN, build_gamma_rep
from twodirac.linalg import (block, hstack, identity_g, rank, rank_bareiss,
                             vstack, zeros_g)
from twodirac.spin import gamma_c_mat, random_spinc, rho_n_c
from twodirac.symbols import (Covector, ScanReport,
                              degenerate_family, ellipticity_scan,
                              exactness_report, index_certificate,
                              random_covector, sigma1, sigma2, sigma3,
                              spinor_dim, symbol_index, symbol_triple,
                              weight_table)

import reference_elimination as field

REP3 = build_gamma_rep(3)
REP4 = build_gamma_rep(4)


def test_sigma_shapes_and_zero():
    zero = Covector((0, 0, 0), (0, 0, 0))
    assert sigma1(REP3, zero).is_zero() and sigma1(REP3, zero).shape == (4, 2)
    assert sigma2(REP3, zero).is_zero() and sigma2(REP3, zero).shape == (4, 4)
    assert sigma3(REP3, zero).is_zero() and sigma3(REP3, zero).shape == (2, 4)
    with pytest.raises(ValueError):
        sigma1(REP4, zero)


def test_sigma_frozen_forms():
    g1 = REP3.gammas[0]
    x10 = Covector((1, 0, 0), (0, 0, 0))
    assert sigma1(REP3, x10) == vstack(g1, zeros_g(2, 2))
    # with X2 = 0 the only surviving block of sigma2 is M1 M1 = sign * Id
    assert sigma2(REP3, x10) == block(
        [[zeros_g(2, 2), identity_g(2).scaled(CLIFFORD_SIGN)],
         [zeros_g(2, 2), zeros_g(2, 2)]])
    x01 = Covector((0, 0, 0), (1, 0, 0))
    assert sigma3(REP3, x01) == hstack(-g1, zeros_g(2, 2))


def test_complex_property_identically():
    rng = Random(0)
    for n, rep in ((3, REP3), (4, REP4)):
        for x in degenerate_family(n, rng) + [random_covector(n, rng)
                                              for _ in range(100)]:
            t = symbol_triple(rep, x)
            assert (t.s2 @ t.s1).is_zero()
            assert (t.s3 @ t.s2).is_zero()
    # including the zero covector
    symbol_triple(REP3, Covector((0, 0, 0), (0, 0, 0)))


def test_homogeneity_matches_operator_orders():
    rng = Random(1)
    for _ in range(20):
        x = random_covector(3, rng)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert sigma1(REP3, x.scaled(t)) == sigma1(REP3, x).scaled(t)
        assert sigma2(REP3, x.scaled(t)) == sigma2(REP3, x).scaled(t * t)
        assert sigma3(REP3, x.scaled(t)) == sigma3(REP3, x).scaled(t)


def test_exactness_frozen_examples():
    r = exactness_report(REP3, Covector((1, 0, 0), (0, 1, 0)))
    assert (r.rank1, r.rank2, r.rank3) == (2, 2, 2)
    assert r.all_exact
    # degenerate direction X2 = 0: kernel of sigma2 is {(p1, 0)} = image of sigma1
    r = exactness_report(REP3, Covector((1, 0, 0), (0, 0, 0)))
    assert (r.rank1, r.rank2, r.rank3) == (2, 2, 2) and r.all_exact
    r = exactness_report(REP4, Covector((1, 1, 0, 0), (0, 0, 1, 0)))
    assert r.rank1 == 4 == REP4.s and r.all_exact


def test_exactness_rejects_zero_and_bad_mode():
    zero = Covector((0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        exactness_report(REP3, zero)
    with pytest.raises(ValueError):
        exactness_report(REP3, Covector((1, 0, 0), (0, 0, 0)), mode="fast")
    # the zero covector really is the degenerate point: rank1 = 0 != s
    assert rank(sigma1(REP3, zero)) == 0


def test_exact_and_float_modes_agree():
    rng = Random(2)
    for n, rep in ((3, REP3), (4, REP4)):
        for _ in range(40):
            x = random_covector(n, rng)
            assert exactness_report(rep, x, "exact") == \
                exactness_report(rep, x, "float")


def test_three_rank_routes_agree_on_symbol_matrices():
    # the ellipticity certificates lean on the fraction-free rank, so pin it
    # against the field-elimination oracle and the SVD route on the matrices
    # that actually occur, at the largest spinor dimensions in scope
    from twodirac.symbols import _rank_float
    rng = Random(7)
    for n in (5, 6):
        rep = build_gamma_rep(n)
        for x in [random_covector(n, rng) for _ in range(6)] + \
                degenerate_family(n)[:8]:
            t = symbol_triple(rep, x)
            for m in (t.s1, t.s2, t.s3):
                exact = rank_bareiss(m)
                assert exact == field.rank(m)
                assert exact == _rank_float(m)


def test_degenerate_family_contents():
    fam = degenerate_family(3)
    pats = {(tuple(c.x1), tuple(c.x2)) for c in fam}
    e1, e2 = (1, 0, 0), (0, 1, 0)
    zero = (0, 0, 0)
    assert (e1, zero) in pats
    assert (zero, e1) in pats
    assert (e1, e1) in pats
    assert (e1, (-1, 0, 0)) in pats
    assert (e1, e2) in pats
    rng = Random(3)
    seeded = degenerate_family(3, rng)
    assert len(seeded) > len(fam)
    # the seeded tail consists of exactly orthogonal pairs
    v, w = seeded[-1].x1, seeded[-1].x2
    assert any(v) and any(w)
    assert sum(a * b for a, b in zip(v, w)) == 0


def test_ellipticity_scan_passes():
    rpt = ellipticity_scan(3, 150, seed=42)
    assert isinstance(rpt, ScanReport)
    assert rpt.passed and not rpt.failures
    assert rpt.checked > 150
    assert ellipticity_scan(4, 60, seed=1, mode="float").passed
    with pytest.raises(ValueError):
        ellipticity_scan(2, 10, 0)


def test_scan_is_deterministic():
    a = ellipticity_scan(3, 50, seed=9)
    b = ellipticity_scan(3, 50, seed=9)
    assert a == b


def test_sigma1_equivariance_under_spinc():
    rng = Random(4)
    for _ in range(10):
        g = random_spinc(REP3, rng)
        x = random_covector(3, rng)
        r = rho_n_c(g).mat
        moved = Covector(r.apply(x.x1), r.apply(x.x2))
        gc = gamma_c_mat(g)
        z = zeros_g(2, 2)
        stacked = block([[gc, z], [z, gc]])
        assert sigma1(REP3, moved) @ gc == stacked @ sigma1(REP3, x)


def test_weight_table_values():
    wt = weight_table(3)
    assert wt.lam == ((1, 1), (2, 1), (3, 2), (3, 3))
    assert wt.orders == (1, 2, 1)
    assert wt.fiber_dims == (2, 4, 4, 2)
    assert weight_table(5).fiber_dims == (4, 8, 8, 4)
    wt4 = weight_table(4)
    assert wt4.lam[0] == (Fraction(3, 2), Fraction(3, 2))
    with pytest.raises(ValueError):
        weight_table(2)


def test_symbol_index_zero():
    for n in range(3, 13):
        assert symbol_index(n) == 0
        cert = index_certificate(n)
        assert cert.index == 0
        assert cert.end_modules_match and cert.middle_modules_match
        s = spinor_dim(n)
        assert cert.fiber_dims == (s, 2 * s, 2 * s, s)
    assert symbol_index(3) == 2 - 4 + 4 - 2
    assert symbol_index(6) == 8 - 16 + 16 - 8
