from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodirac import linalg, symbols
from twodirac.clifford import CLIFFORD_SIGN, build_gamma_rep
from twodirac.linalg import (_bareiss, block, hstack, identity, rank, submatrix,
                             vdot, vstack, zeros)
from twodirac.scalars import GaussianRational
from twodirac.spin import gamma_c_mat, random_spinc, rho_n_c
from twodirac.symbols import (Covector, ScanReport, SymbolTriple,
                              degenerate_family, ellipticity_scan,
                              exactness_report, random_covector, sigma1,
                              spinor_dim, symbol_matrices, symbol_triple,
                              weight_table)

import reference_elimination as field
import reference_gammas
import reference_symbols
from strategies import coordinates, gaussians, rationals, seeds, vectors

REP3 = build_gamma_rep(3)
REP4 = build_gamma_rep(4)


def test_sigma_shapes_and_zero():
    zero = Covector((0, 0, 0), (0, 0, 0))
    s1, s2, s3 = symbol_matrices(REP3, zero)
    assert sigma1(REP3, zero) == s1
    assert s1.is_zero() and s1.shape == (4, 2)
    assert s2.is_zero() and s2.shape == (4, 4)
    assert s3.is_zero() and s3.shape == (2, 4)
    with pytest.raises(ValueError):
        sigma1(REP4, zero)


def test_sigma_frozen_forms():
    g1 = reference_gammas.gammas(3)[0]
    x10 = Covector((1, 0, 0), (0, 0, 0))
    s1, s2, _ = symbol_matrices(REP3, x10)
    assert s1 == vstack(g1, zeros(2, 2))
    # with X2 = 0 the only surviving block of sigma2 is M1 M1 = sign * Id
    assert s2 == block(
        [[zeros(2, 2), identity(2).scaled(CLIFFORD_SIGN)],
         [zeros(2, 2), zeros(2, 2)]])
    x01 = Covector((0, 0, 0), (1, 0, 0))
    assert symbol_matrices(REP3, x01)[2] == hstack(-g1, zeros(2, 2))


@st.composite
def covectors(draw):
    """(n, X) for n = 3..8 with int or Fraction entries: X1 = 0, X2 = 0,
    X1 parallel to X2, X1 perpendicular to X2, or a random pair."""
    n = draw(st.integers(3, 8))
    v, w = draw(vectors(coordinates, n)), draw(vectors(coordinates, n))
    t = draw(rationals(4, 5))
    zero = (0,) * n
    # w minus its component along v, scaled by |v|^2 to stay exact
    perp = tuple(vdot(v, v) * b - vdot(v, w) * a for a, b in zip(v, w))
    pairs = {"x1 zero": (zero, w), "x2 zero": (v, zero),
             "parallel": (v, tuple(t * a for a in v)),
             "perpendicular": (v, perp), "random": (v, w)}
    return n, Covector(*pairs[draw(st.sampled_from(sorted(pairs)))])


@settings(max_examples=60, deadline=None)
@given(covectors())
def test_sigma2_matches_the_literal_products(case):
    n, x = case
    rep = build_gamma_rep(n)
    s1, s2, s3 = symbol_matrices(rep, x)
    assert s2 == reference_symbols.sigma2(n, x)
    assert s1 == sigma1(rep, x)
    t = symbol_triple(rep, x)
    assert (t.s1, t.s2, t.s3) == (s1, s2, s3)


def _mutated_sigma2(rep, x, mutant: str):
    """sigma2 with one Clifford-relation block wrong."""
    s, eye = rep.s, identity(rep.s)
    p = -submatrix(symbol_matrices(rep, x)[1], 0, s, 0, s)  # M2 M1
    q1, q2, b = vdot(x.x1, x.x1), vdot(x.x2, x.x2), vdot(x.x1, x.x2)
    top_right = eye.scaled(q1 if mutant == "+q1" else -q1)
    bottom_left = eye.scaled(-q2 if mutant == "-q2" else q2)
    bottom_right = -p if mutant == "no 2b" else -p - eye.scaled(2 * b)
    return block([[-p, top_right], [bottom_left, bottom_right]])


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("mutant", ["+q1", "-q2", "no 2b"])
def test_complex_check_certifies_the_clifford_relations(n, mutant):
    # X1, X2 and <X1, X2> all nonzero, so each mutant changes s2 s1
    x = Covector((1, 2) + (0,) * (n - 2), (0, 1, 3) + (0,) * (n - 3))
    assert vdot(x.x1, x.x2) != 0
    rep = build_gamma_rep(n)
    s1, s2, s3 = symbol_matrices(rep, x)
    assert _mutated_sigma2(rep, x, "none") == s2
    SymbolTriple(s1, s2, s3)
    with pytest.raises(AssertionError, match="s2 @ s1 != 0"):
        SymbolTriple(s1, _mutated_sigma2(rep, x, mutant), s3)


@pytest.mark.parametrize("build", [sigma1, symbol_matrices, symbol_triple,
                                   exactness_report])
def test_covector_of_the_wrong_dimension_is_refused(build):
    for rep, x in ((REP3, Covector((1, 0, 0, 2), (0, 1, 0, 0))),
                   (REP4, Covector((1, 0, 0), (0, 1, 0)))):
        with pytest.raises(ValueError, match=rf"^covector dimension {x.n} != n = {rep.n}$"):
            build(rep, x)


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
        pairs = zip(symbol_matrices(REP3, x.scaled(t)), symbol_matrices(REP3, x))
        for (at_tx, at_x), order in zip(pairs, (1, 2, 1)):
            assert at_tx == at_x.scaled(t ** order)


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
    # the report eliminates s1 alone (the rank mod p, with the fraction-free
    # rank as its fallback) and reads rank s2 and rank s3 off the triple, so
    # pin the report's ranks and the fallback against the field-elimination
    # oracle and the SVD route on the matrices that actually occur, at the
    # largest spinor dimensions in scope
    from twodirac.symbols import _rank_float
    rng = Random(7)
    for n in (5, 6):
        rep = build_gamma_rep(n)
        # the first entries of the family come from basis vectors alone
        for x in [random_covector(n, rng) for _ in range(6)] + \
                degenerate_family(n, Random(0))[:8]:
            t = symbol_triple(rep, x)
            rpt = exactness_report(rep, x, "exact")
            for m, certified in zip((t.s1, t.s2, t.s3), (rpt.rank1, rpt.rank2, rpt.rank3)):
                assert certified == _bareiss(m)[0] == field.rank(m) == _rank_float(m)


def _outcome(build, rep, x):
    """What a build returns, or the type and message of what it raises."""
    try:
        return build(rep, x)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def _agrees_with_the_oracle(rep, x):
    """Equal reports, and the same triple accepted or the same refusal."""
    assert _outcome(exactness_report, rep, x) == \
        _outcome(reference_symbols.exactness_report, rep, x)
    triple = _outcome(symbol_triple, rep, x)
    if isinstance(triple, SymbolTriple):
        triple = (triple.s1, triple.s2, triple.s3)
    assert triple == _outcome(reference_symbols.triple, rep, x)


@settings(max_examples=60, deadline=None)
@given(covectors())
def test_report_matches_the_product_and_elimination_oracle(case):
    n, x = case
    _agrees_with_the_oracle(build_gamma_rep(n), x)


@settings(max_examples=8, deadline=None)
@given(st.integers(3, 7), seeds)
def test_report_matches_the_oracle_on_the_degenerate_family(n, seed):
    rep = build_gamma_rep(n)
    for x in degenerate_family(n, Random(seed)):
        _agrees_with_the_oracle(rep, x)


_NULL = (GaussianRational(1), GaussianRational(0, 1), GaussianRational(0))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 6).flatmap(
    lambda n: vectors(vectors(gaussians(st.integers(-4, 4)), n), 2)))
@example((_NULL, (0, 0, 0)))
def test_report_matches_the_oracle_off_the_reals(pair):
    # off the reals M_i^dagger != -M_i, so s3 = s1^dagger K would fail,
    # although the oracle finds s3 s2 = 0 (<X1, X1> = 0 for X1 = (1, i, 0)
    # makes M1 nilpotent): a covector takes int and Fraction components
    # only, so a Gaussian one is refused, a zero imaginary part included
    with pytest.raises(ValueError, match="int or Fraction"):
        Covector(*pair)
    x = Covector(*(tuple(getattr(a, "re", a) for a in part) for part in pair))
    _agrees_with_the_oracle(build_gamma_rep(x.n), x)


@pytest.mark.parametrize("n", [3, 6, 7])
def test_real_report_forms_one_product_and_one_elimination(n, monkeypatch):
    calls = {"_product": 0, "_rank_mod_p": 0, "_bareiss": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(linalg, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(linalg, name, counted)
    rep, rng = build_gamma_rep(n), Random(n)
    covectors = degenerate_family(n, rng)[::5] + [random_covector(n, rng) for _ in range(5)]
    for x in covectors:
        assert exactness_report(rep, x).all_exact
    # s2 @ s1, and the rank of s1 mod p meeting its shape bound
    assert calls == {"_product": len(covectors), "_rank_mod_p": len(covectors),
                     "_bareiss": 0}


def _third_without_m1(m1, m2):
    return hstack(-m2, m1.scaled(0))


def _sigma2_without_bottom_left(orig):
    def patched(rep, x, m2):
        m, s = orig(rep, x, m2), rep.s
        return block([[submatrix(m, 0, s, 0, s), submatrix(m, 0, s, s, 2 * s)],
                      [zeros(s, s), submatrix(m, s, 2 * s, s, 2 * s)]])
    return patched


def _sigma2_gauged(orig):
    """(D x I) sigma2 for D = [[1, 1], [0, 1]]: s2 s1 = 0 still holds."""
    def patched(rep, x, m2):
        eye = identity(rep.s)
        return block([[eye, eye], [zeros(rep.s, rep.s), eye]]) @ orig(rep, x, m2)
    return patched


@pytest.mark.parametrize("n", [3, 4, 6])
def test_a_third_symbol_off_the_adjoint_is_refused(n, monkeypatch):
    # at X2 = 0, s3 = [0, M1]; without its M1 block it is zero, which
    # s3 = s1^dagger K refutes, so the triple is refused; the oracle, which
    # forms s3 s2 = 0 and eliminates s3, ranks it 0
    monkeypatch.setattr(symbols, "_third", _third_without_m1)
    rep = build_gamma_rep(n)
    x = Covector((1, 2) + (0,) * (n - 2), (0,) * n)
    refused = (AssertionError, "s3 != s1^dagger K")
    assert _outcome(symbol_triple, rep, x) == refused
    assert _outcome(exactness_report, rep, x) == refused
    rpt = reference_symbols.exactness_report(rep, x)
    assert (rpt.rank1, rpt.rank3) == (rep.s, 0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sigma2_without_a_scalar_block_is_refused(n, monkeypatch):
    # at X1 = 0 the only nonzero block of s2 is the bottom-left q2 I; with
    # it zeroed, s2 = 0 passes the triple's checks, but no off-diagonal
    # block is a nonzero scalar, so the report is refused rather than
    # reading rank s2 = s off rank s1 = s; the oracle eliminates rank s2 = 0
    monkeypatch.setattr(symbols, "_second", _sigma2_without_bottom_left(symbols._second))
    rep = build_gamma_rep(n)
    x = Covector((0,) * n, (0, 1, 3) + (0,) * (n - 3))
    symbol_triple(rep, x)
    assert _outcome(exactness_report, rep, x) == \
        (AssertionError, "no off-diagonal block of s2 is a nonzero scalar")
    rpt = reference_symbols.exactness_report(rep, x)
    assert (rpt.rank1, rpt.rank2) == (rep.s, 0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_a_gauged_sigma2_fails_the_complex_check(n, monkeypatch):
    # (D x I) s2 keeps s2 s1 = 0 and s3 = s1^dagger K, but K (D x I) s2 is
    # not hermitian, so the triple is refused; the oracle's s3 s2 is not zero
    monkeypatch.setattr(symbols, "_second", _sigma2_gauged(symbols._second))
    rep = build_gamma_rep(n)
    x = Covector((1, 2) + (0,) * (n - 2), (0, 1, 3) + (0,) * (n - 3))
    refused = (AssertionError, "K s2 is not hermitian")
    assert _outcome(symbol_triple, rep, x) == refused
    assert _outcome(exactness_report, rep, x) == refused
    assert _outcome(reference_symbols.triple, rep, x) == \
        (AssertionError, "s3 @ s2 != 0: complex property violated")


def test_degenerate_family_contents():
    fam = degenerate_family(3, Random(3))
    # four patterns over 3 basis and 3 seeded vectors, the 3 * 2 ordered
    # basis pairs, and one orthogonal pair per seeded vector
    assert len(fam) == 4 * 6 + 3 * 2 + 3
    pats = {(tuple(c.x1), tuple(c.x2)) for c in fam}
    e1, e2 = (1, 0, 0), (0, 1, 0)
    zero = (0, 0, 0)
    assert (e1, zero) in pats
    assert (zero, e1) in pats
    assert (e1, e1) in pats
    assert (e1, (-1, 0, 0)) in pats
    assert (e1, e2) in pats
    # the seeded tail consists of exactly orthogonal pairs
    v, w = fam[-1].x1, fam[-1].x2
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
        z = zeros(2, 2)
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
        wt = weight_table(n)
        assert wt.index == 0
        d = wt.fiber_dims
        assert d[0] == d[3] and d[1] == d[2]
        s = spinor_dim(n)
        assert d == (s, 2 * s, 2 * s, s)
        assert all(type(x) is int for x in d)
    assert weight_table(3).index == 2 - 4 + 4 - 2
    assert weight_table(6).index == 8 - 16 + 16 - 8
