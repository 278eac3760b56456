from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.clifford import (CLIFFORD_SIGN, GammaRep, _validate,
                               basis_spinor, build_gamma_rep,
                               clifford_act, clifford_mat)
from twodirac.linalg import Matrix, identity_g, is_zero_vec, zeros_g
from twodirac.sampling import unit_vector
from twodirac.scalars import GR_I, GR_ONE, GR_ZERO, gr


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_gamma_rep(1)
    with pytest.raises(ValueError):
        build_gamma_rep(0)


@pytest.mark.parametrize("n,s", [(2, 2), (3, 2), (4, 4), (5, 4), (6, 8), (7, 8)])
def test_spinor_dimension(n, s):
    rep = build_gamma_rep(n)
    assert rep.s == s == 2 ** (n // 2)
    assert len(rep.gammas) == n


def test_base_case_pauli_type():
    rep = build_gamma_rep(2)
    sq = identity_g(2).scaled(CLIFFORD_SIGN)
    for g in rep.gammas:
        assert g @ g == sq
    g1, g2 = rep.gammas
    assert g1 @ g2 == -(g2 @ g1)


def test_all_pairs_anticommute_n6():
    rep = build_gamma_rep(6)
    assert len(list(combinations(range(6), 2))) == 15
    for a, b in combinations(range(6), 2):
        ga, gb = rep.gammas[a], rep.gammas[b]
        assert ga @ gb + gb @ ga == zeros_g(8, 8)
    for g in rep.gammas:
        assert g @ g == identity_g(8).scaled(CLIFFORD_SIGN)


def test_validate_rejects_gamma_that_is_not_anti_hermitian():
    # squares to -1 and has unit entries, but its adjoint is not -gamma, so
    # spin inverses taken as adjoints would be wrong
    bad = Matrix([[GR_I, GR_ONE], [GR_ZERO, -GR_I]])
    assert bad @ bad == identity_g(2).scaled(CLIFFORD_SIGN)
    good = build_gamma_rep(2)
    _validate(good)
    with pytest.raises(AssertionError, match="anti-hermitian"):
        _validate(GammaRep(n=2, s=2, gammas=(bad, good.gammas[1])))


def test_entries_are_units():
    allowed = {GR_ZERO, GR_ONE, -GR_ONE, GR_I, -GR_I}
    for n in range(2, 8):
        for g in build_gamma_rep(n).gammas:
            assert {x for row in g.rows for x in row} <= allowed


def test_determinism_bitwise():
    a = build_gamma_rep.__wrapped__(5)
    b = build_gamma_rep.__wrapped__(5)
    assert a.gammas == b.gammas


def test_clifford_mat_basis_and_zero():
    rep = build_gamma_rep(3)
    assert clifford_mat(rep, (1, 0, 0)) == rep.gammas[0]
    assert clifford_mat(rep, (0, 0, 0)) == zeros_g(2, 2)
    with pytest.raises(ValueError):
        clifford_mat(rep, (1, 0))


def test_square_law_example():
    # (gamma1 + gamma2)^2 = 2 * sign * Id, multiplied out exactly
    rep = build_gamma_rep(3)
    m = clifford_mat(rep, (1, 1, 0))
    assert m @ m == identity_g(2).scaled(2 * CLIFFORD_SIGN)


rational_vecs = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                         min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(rational_vecs, rational_vecs)
def test_polarized_clifford_relation(v, w):
    rep = build_gamma_rep(4)
    mv, mw = clifford_mat(rep, v), clifford_mat(rep, w)
    inner = sum(a * b for a, b in zip(v, w))
    want = identity_g(4).scaled(gr(2 * CLIFFORD_SIGN * inner))
    assert mv @ mw + mw @ mv == want


def test_injectivity():
    rep = build_gamma_rep(5)
    rng = Random(3)
    for _ in range(25):
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5))
        if any(v):
            assert not clifford_mat(rep, v).is_zero()
    assert clifford_mat(rep, (0,) * 5).is_zero()


def test_clifford_act():
    rep = build_gamma_rep(3)
    psi = basis_spinor(rep, 0)
    assert clifford_act(rep, (1, 0, 0), psi) == rep.gammas[0].apply(psi)
    assert is_zero_vec(clifford_act(rep, (1, 1, 1), (GR_ZERO, GR_ZERO)))
    with pytest.raises(ValueError):
        clifford_act(rep, (1, 0, 0), (GR_ONE,))
    # v.(v.psi) = sign * psi for a unit vector
    out = clifford_act(rep, (0, 1, 0), clifford_act(rep, (0, 1, 0), psi))
    assert out == tuple(CLIFFORD_SIGN * c for c in psi)


def test_unit_vector_action_squares_to_sign():
    rep = build_gamma_rep(4)
    rng = Random(7)
    for _ in range(20):
        v = unit_vector(rng, 4)
        m = clifford_mat(rep, v)
        assert m @ m == identity_g(4).scaled(CLIFFORD_SIGN)
