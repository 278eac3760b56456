from fractions import Fraction
from random import Random

import pytest

from twodirac.clifford import build_gamma_rep
from twodirac.linalg import Matrix, identity_g, identity_q, qmat, submatrix, vdot
from twodirac.sampling import circle_point, deterministic_circle_points
from twodirac.scalars import CIRCLE_MINUS_ONE, CIRCLE_ONE, CirclePoint
from twodirac.spin import (PhaseTriple, RationalRotation, SpinCElement,
                           SpinElement, gamma_c_act, hc_forward, hc_inverse,
                           hsharp_forward, hsharp_inverse, iota_embed,
                           is_in_spin_subgroup, is_in_u1_subgroup,
                           random_phase_triple, random_spin, random_spinc,
                           rho_n, rho_n_c, so2_block, spin_from_unit_vectors,
                           spin_rotation_generator, spinc_equal, varsigma_n)

REP3 = build_gamma_rep(3)


def reflection_word_rotation(word, n):
    """Independent oracle for the covering map.

    Conjugation by a single unit vector v fixes v and negates its orthogonal
    complement, i.e. w -> 2<v, w>v - w; for a word the maps compose with the
    last letter acting first.
    """
    cols = []
    for k in range(n):
        w = tuple(Fraction(1) if i == k else Fraction(0) for i in range(n))
        for v in reversed(word):
            c = 2 * vdot(v, w)
            w = tuple(c * a - b for a, b in zip(v, w))
        cols.append(w)
    return Matrix(cols).transpose()


def test_word_validation():
    with pytest.raises(ValueError):
        spin_from_unit_vectors(REP3, [(1, 0, 0)])  # odd length
    with pytest.raises(ValueError):
        spin_from_unit_vectors(REP3, [(1, 1, 0), (1, 0, 0)])  # non-unit
    with pytest.raises(ValueError):
        spin_from_unit_vectors(REP3, [(1, 0), (1, 0)])  # wrong length


def test_identity_and_center():
    e1 = (1, 0, 0)
    assert spin_from_unit_vectors(REP3, [e1, (-1, 0, 0)]).spinor_mat == identity_g(2)
    minus = spin_from_unit_vectors(REP3, [e1, e1])
    assert minus.spinor_mat == identity_g(2).scaled(-1)
    assert minus == SpinElement.minus_one(REP3)
    assert minus.is_central() and SpinElement.identity(REP3).is_central()
    assert rho_n(minus).mat == identity_q(3)


def test_coordinate_plane_rotation():
    a = spin_from_unit_vectors(REP3, [(1, 0, 0), (0, 1, 0)])
    assert rho_n(a).mat == qmat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])


def test_rho_against_reflection_oracle():
    rng = Random(5)
    for n in (3, 4, 5):
        rep = build_gamma_rep(n)
        for _ in range(30):
            a = random_spin(rep, rng)
            assert rho_n(a).mat == reflection_word_rotation(a.word, n)


def test_rho_homomorphism_and_double_cover():
    rng = Random(6)
    for n in (3, 4):
        rep = build_gamma_rep(n)
        for _ in range(100):
            a, b = random_spin(rep, rng), random_spin(rep, rng)
            assert rho_n(a * b).mat == (rho_n(a) @ rho_n(b)).mat
            assert rho_n(-a).mat == rho_n(a).mat
            assert a != -a
            assert rho_n(a.inverse()).mat == rho_n(a).mat.transpose()


def test_double_angle_at_rational_points():
    for p in deterministic_circle_points(20):
        gen = spin_rotation_generator(REP3, p)
        assert rho_n(gen).mat == so2_block(p.square(), 1)


def test_rational_rotation_validation():
    with pytest.raises(ValueError):
        RationalRotation(qmat([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        RationalRotation(qmat([[0, 1], [1, 0]]))  # determinant -1


def test_rho_rejects_corrupted_element():
    # a hand-corrupted spinor matrix whose conjugation leaves the gamma span
    bad = qmat([[1, 0], [0, 2]])
    from twodirac.linalg import gmat
    elt = SpinElement(REP3, (), spinor_mat=gmat(bad.rows))
    with pytest.raises(ValueError):
        rho_n(elt)


def test_spinc_equality_cases():
    rng = Random(7)
    a = random_spin(REP3, rng)
    p = circle_point(rng)
    x = SpinCElement(p, a)
    assert spinc_equal(x, SpinCElement(p, a))
    assert spinc_equal(x, SpinCElement(-p, -a))
    assert not spinc_equal(x, SpinCElement(-p, a))
    assert hash(x) == hash(x.negated_representative())


def test_rho_c_and_varsigma():
    rng = Random(8)
    one = SpinElement.identity(REP3)
    assert varsigma_n(SpinCElement(CIRCLE_ONE, one)) == CIRCLE_ONE
    assert varsigma_n(SpinCElement(CirclePoint(0, 1), one)) == CIRCLE_MINUS_ONE
    assert rho_n_c(SpinCElement.identity(REP3)).mat == identity_q(3)
    for _ in range(100):
        x = random_spinc(REP3, rng)
        y = random_spinc(REP3, rng)
        neg = x.negated_representative()
        assert rho_n_c(x).mat == rho_n_c(neg).mat
        assert varsigma_n(x) == varsigma_n(neg)
        assert rho_n_c(x * y).mat == (rho_n_c(x) @ rho_n_c(y)).mat
        assert varsigma_n(x * y) == varsigma_n(x) * varsigma_n(y)
        # output orthogonality is enforced by the RationalRotation type
        r = rho_n_c(x)
        assert r.mat.transpose() @ r.mat == identity_q(3)


def test_gamma_c_action():
    rng = Random(9)
    psi = tuple(identity_g(2).col(0))
    one = SpinCElement.identity(REP3)
    assert gamma_c_act(one, psi) == psi
    flip = SpinCElement(CIRCLE_MINUS_ONE, SpinElement.minus_one(REP3))
    assert gamma_c_act(flip, psi) == psi  # <-1, -1> is the identity class
    for _ in range(100):
        x, y = random_spinc(REP3, rng), random_spinc(REP3, rng)
        assert gamma_c_act(x * y, psi) == gamma_c_act(x, gamma_c_act(y, psi))
    with pytest.raises(ValueError):
        gamma_c_act(one, psi + psi)


def test_kernels_of_the_two_sequences():
    rng = Random(10)
    one = SpinElement.identity(REP3)
    for _ in range(30):
        x = random_spinc(REP3, rng)
        assert (rho_n_c(x).mat == identity_q(3)) == is_in_u1_subgroup(x)
        assert (varsigma_n(x) == CIRCLE_ONE) == is_in_spin_subgroup(x)
    u1 = SpinCElement(circle_point(rng), one)
    assert is_in_u1_subgroup(u1) and rho_n_c(u1).mat == identity_q(3)
    sp = SpinCElement(CIRCLE_MINUS_ONE, random_spin(REP3, rng))
    assert is_in_spin_subgroup(sp) and varsigma_n(sp) == CIRCLE_ONE


def test_iota_identity_and_rotation():
    big = build_gamma_rep(5)
    one = SpinCElement.identity(REP3)
    assert iota_embed(one, big) == SpinElement.identity(big)
    # a pure phase lands on the doubled-angle rotation of the first plane
    p = CirclePoint(Fraction(3, 5), Fraction(4, 5))
    x = SpinCElement(p, SpinElement.identity(REP3))
    assert rho_n(iota_embed(x, big)).mat == so2_block(p.square(), 3)


def test_iota_block_diagonal_and_homomorphism():
    rng = Random(11)
    big = build_gamma_rep(5)
    for _ in range(100):
        x, y = random_spinc(REP3, rng), random_spinc(REP3, rng)
        emb = iota_embed(x, big)
        r = rho_n(emb).mat
        assert submatrix(r, 0, 2, 2, 5).is_zero()
        assert submatrix(r, 2, 5, 0, 2).is_zero()
        ph2 = x.phase.square()
        assert submatrix(r, 0, 2, 0, 2) == qmat([[ph2.c, -ph2.d], [ph2.d, ph2.c]])
        assert submatrix(r, 2, 5, 2, 5) == rho_n_c(x).mat
        assert iota_embed(x.negated_representative(), big) == emb
        assert iota_embed(x * y, big) == emb * iota_embed(y, big)
        if not spinc_equal(x, y):
            assert iota_embed(y, big) != emb
    with pytest.raises(ValueError):
        iota_embed(random_spinc(REP3, rng), build_gamma_rep(4))


def test_iota_kernel_is_z2():
    big = build_gamma_rep(5)
    one = SpinElement.identity(REP3)
    k0 = SpinCElement(CIRCLE_ONE, one)
    k1 = SpinCElement(CIRCLE_MINUS_ONE, one)
    assert not spinc_equal(k0, k1)
    for x in (k0, k1):
        assert rho_n(iota_embed(x, big)).mat == identity_q(5)
    assert iota_embed(k0, big).spinor_mat == identity_g(4)
    assert iota_embed(k1, big).spinor_mat == identity_g(4).scaled(-1)


def test_hsharp_explicit_values():
    one = SpinElement.identity(REP3)
    so2, a = hsharp_forward(PhaseTriple(CIRCLE_ONE, CIRCLE_ONE, one))
    assert so2 == CIRCLE_ONE and a == one
    # <-1, 1, a>: the phase factor is -1, so the spin output gets negated
    b = random_spin(REP3, Random(12))
    so2, out = hsharp_forward(PhaseTriple(CIRCLE_MINUS_ONE, CIRCLE_ONE, b))
    assert so2 == CIRCLE_ONE and out == -b
    with pytest.raises(ValueError):
        hsharp_forward(PhaseTriple(CirclePoint(0, 1), CIRCLE_ONE, one))


def test_hsharp_round_trips_and_homomorphism():
    rng = Random(13)
    for _ in range(50):
        tr = random_phase_triple(REP3, rng, constrained=True)
        so2, a = hsharp_forward(tr)
        assert hsharp_inverse(so2, a) == tr
        tr2 = random_phase_triple(REP3, rng, constrained=True)
        p12, a12 = hsharp_forward(tr * tr2)
        p1, a1 = hsharp_forward(tr)
        p2, a2 = hsharp_forward(tr2)
        assert p12 == p1 * p2 and a12 == a1 * a2
    # forward after inverse is the identity on the other side
    w = circle_point(rng)
    so2 = w.square()
    b = random_spin(REP3, rng)
    p, a = hsharp_forward(hsharp_inverse(so2, b))
    assert p == so2 and a == b


def test_hsharp_inverse_needs_witness():
    with pytest.raises(ValueError):
        hsharp_inverse(CirclePoint(0, 1), SpinElement.identity(REP3))


def test_hc_explicit_values():
    one = SpinElement.identity(REP3)
    so2, x = hc_forward(PhaseTriple(CIRCLE_ONE, CIRCLE_ONE, one))
    assert so2 == CIRCLE_ONE and spinc_equal(x, SpinCElement.identity(REP3))
    # u = 0 (witness 1), v at angle pi: class <-1, 1, a>, and it round-trips
    b = random_spin(REP3, Random(14))
    so2_in = CIRCLE_ONE.square()  # carries witness 1
    x_in = SpinCElement(CIRCLE_MINUS_ONE, b)
    tr = hc_inverse(so2_in, x_in)
    assert tr == PhaseTriple(CIRCLE_MINUS_ONE, CIRCLE_ONE, b)
    so2_out, x_out = hc_forward(tr)
    assert so2_out == so2_in and spinc_equal(x_out, x_in)


def test_hc_round_trips_and_homomorphism():
    rng = Random(15)
    for _ in range(50):
        tr = random_phase_triple(REP3, rng, constrained=False)
        so2, x = hc_forward(tr)
        assert hc_inverse(so2, x) == tr
        tr2 = random_phase_triple(REP3, rng, constrained=False)
        p12, x12 = hc_forward(tr * tr2)
        p1, x1 = hc_forward(tr)
        p2, x2 = hc_forward(tr2)
        assert p12 == p1 * p2 and spinc_equal(x12, x1 * x2)


def test_triple_class_equality():
    rng = Random(16)
    a = random_spin(REP3, rng)
    t, s = circle_point(rng), circle_point(rng)
    tr = PhaseTriple(t, s, a)
    assert tr == PhaseTriple(-t, -s, a)
    assert tr == PhaseTriple(-t, s, -a)
    assert tr == PhaseTriple(t, -s, -a)
    assert not (tr == PhaseTriple(-t, s, a)) or a == -a
