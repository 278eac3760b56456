from fractions import Fraction
from itertools import combinations
from operator import neg
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac import clifford
from twodirac.clifford import (CLIFFORD_SIGN, GammaRep, _validate,
                               build_gamma_rep, clifford_mat, times_clifford)
from twodirac.linalg import Matrix, identity, is_zero_vec, times_signed_perms, zeros
from twodirac.sampling import unit_vector
from twodirac.scalars import gr

import reference_gammas
import reference_matmul
import reference_words
from strategies import coordinates, gaussians, matrices, rationals, vectors


def test_rejects_small_n():
    with pytest.raises(ValueError):
        build_gamma_rep(1)
    with pytest.raises(ValueError):
        build_gamma_rep(0)


@pytest.mark.parametrize("n,s", [(2, 2), (3, 2), (4, 4), (5, 4), (6, 8), (7, 8)])
def test_spinor_dimension(n, s):
    rep = build_gamma_rep(n)
    assert rep.s == s == 2 ** (n // 2)
    assert len(rep.cols) == len(rep.phases) == n


def _dense(rep):
    """The generators as dense matrices: gamma_a = clifford_mat(rep, e_a)."""
    return tuple(clifford_mat(rep, e) for e in identity(rep.n).rows)


def test_base_case_pauli_type():
    rep = build_gamma_rep(2)
    sq = identity(2).scaled(CLIFFORD_SIGN)
    for g in _dense(rep):
        assert g @ g == sq
    g1, g2 = _dense(rep)
    assert g1 @ g2 == -(g2 @ g1)


def test_all_pairs_anticommute_n6():
    gammas = _dense(build_gamma_rep(6))
    assert len(list(combinations(range(6), 2))) == 15
    for a, b in combinations(range(6), 2):
        ga, gb = gammas[a], gammas[b]
        assert ga @ gb + gb @ ga == zeros(8, 8)
    for g in gammas:
        assert g @ g == identity(8).scaled(CLIFFORD_SIGN)


def _pairs_rep(n, s, gens):
    return GammaRep(n=n, s=s, cols=tuple(c for c, _ in gens),
                    phases=tuple(p for _, p in gens))


def test_validate_rejects_gamma_that_is_not_anti_hermitian():
    # a signed permutation with unit phases that squares to -1 is unitary
    # and hence anti-hermitian, so the bad gamma is sigma_x, hermitian with
    # unit entries; the check runs before the Clifford relations
    good = build_gamma_rep(2)
    _validate(good)
    with pytest.raises(AssertionError, match="anti-hermitian"):
        _validate(_pairs_rep(2, 2, [((1, 0), (0, 0)),
                                    (good.cols[1], good.phases[1])]))
    # the dense oracle refuses a non-monomial gamma that does square to -1
    bad = Matrix([[gr(0, 1), 1], [0, gr(0, -1)]])
    assert bad @ bad == identity(2).scaled(CLIFFORD_SIGN)
    with pytest.raises(AssertionError, match="anti-hermitian"):
        reference_gammas.validate(2, 2, (bad, reference_gammas.gammas(2)[1]))


@pytest.mark.parametrize("gen,match", [
    (((0, 0), (1, 1)), "not monomial"),        # two rows in one column
    (((1, 0), (1, 5)), "phase outside"),       # i**5 is not a stored exponent
    (((1, 0, 1), (1, 1, 1)), "not monomial"),  # wrong length
])
def test_validate_rejects_non_monomial_input(gen, match):
    good = build_gamma_rep(2)
    with pytest.raises(AssertionError, match=match):
        _validate(_pairs_rep(2, 2, [gen, (good.cols[1], good.phases[1])]))


def test_validate_rejects_commuting_generators():
    # each generator alone is a valid gamma, but the pair commutes
    g = build_gamma_rep(2)
    with pytest.raises(AssertionError, match="gamma_1, gamma_2 fail Clifford relation"):
        _validate(_pairs_rep(2, 2, [(g.cols[0], g.phases[0])] * 2))


@pytest.mark.parametrize("n", range(2, 11))
def test_monomial_build_matches_dense_oracle(n):
    rep = build_gamma_rep(n)
    dense = reference_gammas.gammas(n)
    assert _dense(rep) == dense
    if n <= 7:
        reference_gammas.validate(n, rep.s, dense)


def test_build_at_n20_forms_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the gamma build formed a dense matrix")

    monkeypatch.setattr(clifford, "Matrix", refuse)
    rep = build_gamma_rep.__wrapped__(20)
    assert (rep.n, rep.s) == (20, 1024)
    assert len(rep.cols) == len(rep.phases) == 20
    _validate(rep)


def test_entries_are_units():
    allowed = set(reference_gammas.UNIT_ENTRIES)
    for n in range(2, 8):
        for g in _dense(build_gamma_rep(n)):
            assert {x for row in g.rows for x in row} <= allowed


def test_determinism_bitwise():
    a = build_gamma_rep.__wrapped__(5)
    b = build_gamma_rep.__wrapped__(5)
    assert a == b


def test_clifford_mat_basis_and_zero():
    rep = build_gamma_rep(3)
    assert clifford_mat(rep, (1, 0, 0)) == reference_gammas.gammas(3)[0]
    assert clifford_mat(rep, (0, 0, 0)) == zeros(2, 2)
    with pytest.raises(ValueError):
        clifford_mat(rep, (1, 0))


def test_square_law_example():
    # (gamma1 + gamma2)^2 = 2 * sign * Id, multiplied out exactly
    rep = build_gamma_rep(3)
    m = clifford_mat(rep, (1, 1, 0))
    assert m @ m == identity(2).scaled(2 * CLIFFORD_SIGN)


@settings(max_examples=60, deadline=None)
@given(vectors(rationals(6, 6), 4), vectors(rationals(6, 6), 4))
def test_polarized_clifford_relation(v, w):
    rep = build_gamma_rep(4)
    mv, mw = clifford_mat(rep, v), clifford_mat(rep, w)
    inner = sum(a * b for a, b in zip(v, w))
    want = identity(4).scaled(gr(2 * CLIFFORD_SIGN * inner))
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
    psi = identity(rep.s).col(0)

    def act(v, p):
        return clifford_mat(rep, v).apply(p)

    assert act((1, 0, 0), psi) == reference_gammas.gammas(3)[0].apply(psi)
    assert is_zero_vec(act((1, 1, 1), (gr(0), gr(0))))
    with pytest.raises(ValueError):
        act((1, 0, 0), (gr(1),))
    # v.(v.psi) = sign * psi for a unit vector
    out = act((0, 1, 0), act((0, 1, 0), psi))
    assert out == tuple(CLIFFORD_SIGN * c for c in psi)


def test_unit_vector_action_squares_to_sign():
    rep = build_gamma_rep(4)
    rng = Random(7)
    for _ in range(20):
        v = unit_vector(rng, 4)
        m = clifford_mat(rep, v)
        assert m @ m == identity(4).scaled(CLIFFORD_SIGN)


coefficients = st.one_of(coordinates, st.just(0))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_clifford_mat_matches_dense_sum(data):
    n = data.draw(st.integers(2, 8))
    # zero-heavy vectors keep few generators, so shared positions vary
    zeros = data.draw(st.sets(st.integers(0, n - 1)))
    v = tuple(0 if a in zeros else data.draw(coefficients) for a in range(n))
    assert clifford_mat(build_gamma_rep(n), v) == reference_words.clifford_matrix(n, v)


entries = st.one_of(st.just(0), st.integers(-5, 5), gaussians(rationals(4, 5)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_times_clifford_matches_dense_product(data):
    """m @ sum v_a gamma_a, and m @ (sum v_a gamma_a)^T as the scatter of
    -v_a with negated phases (gamma_a^T = -conj(gamma_a), as ``flat`` runs
    it), against the dense sum, for square and rectangular m and for int,
    Fraction and zero vectors v; v = e_alpha is the product with one gamma."""
    n = data.draw(st.integers(2, 8))
    rep = build_gamma_rep(n)
    v = tuple(data.draw(st.one_of(
        vectors(coefficients, n),
        st.just([0] * n),
        st.integers(0, n - 1).map(lambda k: [int(a == k) for a in range(n)]))))
    rows = data.draw(st.one_of(st.just(rep.s), st.integers(1, rep.s + 2)))
    m = data.draw(matrices(entries, rows, rep.s))
    dense = reference_words.clifford_matrix(n, v)
    assert times_clifford(m, rep, v) == m @ dense
    transposed = [(-x, cols, tuple(map(neg, phases)))
                  for x, cols, phases in zip(v, rep.cols, rep.phases)]
    assert times_signed_perms(m, transposed) == m @ dense.transpose()


def _dense_combination(n, terms):
    """sum_k c_k gamma_k for (c_k, k) terms, repeats included."""
    v = [0] * n
    for c, k in terms:
        v[k] += c
    return reference_words.clifford_matrix(n, v)


def _assert_kernel_matches_dense_product(n, terms, m):
    rep = build_gamma_rep(n)
    got = times_signed_perms(m, [(c, rep.cols[k], rep.phases[k]) for c, k in terms])
    assert got == m @ _dense_combination(n, terms)
    assert got == reference_matmul.matmul(m, _dense_combination(n, terms))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_signed_perm_kernel_matches_dense_product(data):
    n = data.draw(st.integers(2, 8))
    rep = build_gamma_rep(n)
    # any multiset of gammas, repeats and zero coefficients included
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    terms = [(data.draw(coefficients), k) for k in picks]
    rows = data.draw(st.one_of(st.just(rep.s), st.integers(1, rep.s + 2)))
    _assert_kernel_matches_dense_product(n, terms, data.draw(matrices(entries, rows, rep.s)))
