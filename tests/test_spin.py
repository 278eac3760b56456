from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twodirac.clifford import build_gamma_rep
from twodirac.linalg import (Matrix, frobenius_sq, identity, intertwines, reflections,
                             submatrix, times_signed_perms, times_word, zeros)
from twodirac.sampling import circle_point, deterministic_circle_points, unit_vector
from twodirac.scalars import (CIRCLE_MINUS_ONE, CIRCLE_ONE, CirclePoint, GaussianRational,
                              UnitVector, gr)
from twodirac.spin import (PhaseTriple, RationalRotation, SpinCElement,
                           SpinElement, gamma_c_mat, hc_forward,
                           hc_inverse, hsharp_forward, hsharp_inverse, iota_embed,
                           is_in_spin_subgroup, is_in_u1_subgroup,
                           random_phase_triple, random_spin, random_spinc,
                           rho_n, rho_n_c, so2_block, spin_rotation_generator,
                           varsigma_n)

import reference_gammas
import reference_rho as ref
import reference_words as words
from strategies import gaussians, matrices, rationals, seeds, vectors

REP3 = build_gamma_rep(3)
SPINC_ONE = SpinCElement(CIRCLE_ONE, SpinElement.identity(REP3))


def _inverse(a: SpinElement) -> SpinElement:
    """(v1..vk)^-1 = (-vk)..(-v1) for unit vectors v."""
    return SpinElement(a.rep, [tuple(-x for x in v) for v in reversed(a.word)])


def test_word_validation():
    with pytest.raises(ValueError, match="is odd"):
        SpinElement(REP3, [(1, 0, 0)])
    with pytest.raises(ValueError, match=r"vector \(1, 1, 0\) has squared norm 2 != 1"):
        SpinElement(REP3, [(1, 1, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="vector length 2 != n = 3"):
        SpinElement(REP3, [(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="vector length 2 != n = 3"):
        SpinElement(REP3, [UnitVector((1, 0)), (1, 0, 0)])


def test_identity_and_center():
    e1 = (1, 0, 0)
    assert SpinElement(REP3, [e1, (-1, 0, 0)]).spinor_mat == identity(2)
    minus = SpinElement(REP3, [e1, e1])
    assert minus.spinor_mat == identity(2).scaled(-1)
    assert minus == SpinElement.minus_one(REP3)
    assert minus.is_central() and SpinElement.identity(REP3).is_central()
    assert rho_n(minus).mat == identity(3)


@pytest.mark.parametrize("n", range(2, 7))
def test_negation_is_the_product_with_minus_one(n):
    rep = build_gamma_rep(n)
    rng = Random(n)
    for _ in range(4):
        a = random_spin(rep, rng)
        prod = a * SpinElement.minus_one(rep)
        neg = -a
        assert neg == prod and neg.word == prod.word
        assert neg.spinor_mat == prod.spinor_mat == -a.spinor_mat


def test_coordinate_plane_rotation():
    a = SpinElement(REP3, [(1, 0, 0), (0, 1, 0)])
    assert rho_n(a).mat == Matrix([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])


def test_rho_against_reflection_oracle():
    rng = Random(5)
    for n in (3, 4, 5, 6, 7):
        rep = build_gamma_rep(n)
        for _ in range(30):
            a = random_spin(rep, rng)
            for elt in (a, _inverse(a)):
                assert rho_n(elt).mat == ref.word_rotation(elt.word, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 3), seeds)
def test_spinor_matrix_matches_dense_word_product(n, pairs, seed):
    # even words, as the constructor requires; test_clifford's scatter tests
    # cover a single letter
    rng = Random(seed)
    word = [unit_vector(rng, n) for _ in range(2 * pairs)]
    elt = SpinElement(build_gamma_rep(n), word)
    assert elt.spinor_mat == words.spinor_mat(n, word)


@st.composite
def integer_letters(draw, n: int) -> tuple:
    """An integer vector of n components: a multiple c e_a of an axis, whose
    products reach the word kernel's digit bound exactly, or any vector with
    zero components among its entries."""
    if draw(st.booleans()):
        a, c = draw(st.integers(0, n - 1)), draw(st.integers(-40, 40).filter(bool))
        return tuple(c if i == a else 0 for i in range(n))
    return draw(vectors(st.one_of(st.just(0), st.integers(-40, 40)), n))


word_entries = st.one_of(st.just(0), st.integers(-9, 9), gaussians(rationals(4, 5)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_kernel_matches_one_scatter_per_letter(data):
    """``times_word`` against one ``times_signed_perms`` call per letter, for
    real and complex m with s columns, integer letters with zero components
    and words of up to 14 letters, the length ``iota_embed(x * y)`` gives a
    product of two three-pair words."""
    n = data.draw(st.integers(3, 8), label="n")
    rep = build_gamma_rep(n)
    rows = data.draw(st.integers(1, 3), label="rows")
    m = data.draw(st.one_of(st.just(identity(rep.s)),
                            matrices(st.integers(-9, 9), rows, rep.s),
                            matrices(word_entries, rows, rep.s)), label="m")
    word = data.draw(st.lists(integer_letters(n), max_size=14), label="word")
    den = data.draw(st.integers(1, 10 ** 6), label="den")
    want = m
    for w in word:
        want = times_signed_perms(want, zip(w, rep.cols, rep.phases))
    assert times_word(m, rep.cols, rep.phases, word, den) == want.scaled(Fraction(1, den))


def test_packed_kernels_refuse_mismatched_shapes():
    rep = build_gamma_rep(4)
    with pytest.raises(ValueError, match="shape mismatch"):
        times_word(identity(2), rep.cols, rep.phases, [(1, 0, 0, 0)], 1)
    with pytest.raises(ValueError, match="shape mismatch"):
        times_word(identity(4), rep.cols, rep.phases, [(1, 0, 0)], 1)
    with pytest.raises(ValueError, match="letter of length 3 != n = 4"):
        reflections([((1, 0, 0), 1)], 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 14), seeds)
@example(4, 6, 0)
def test_packed_rotation_matches_the_fraction_reflections(n, length, seed):
    """``reflections`` against the oracle's rotation, composed in Fraction
    arithmetic one reflection at a time, on words of up to 14 letters."""
    rng = Random(seed)
    word = [unit_vector(rng, n) for _ in range(length)]
    rot = reflections([(v.w, v.e) for v in word], n)
    assert rot == ref.word_rotation(word, n)


def test_letters_are_unit_vectors_converted_once():
    """A letter is stored as a UnitVector: converted from rational
    components, kept as it is when it already is one, and read back by
    value."""
    v = unit_vector(Random(3), 3)
    a = SpinElement(REP3, [v, (Fraction(3, 5), 0, Fraction(-4, 5))])
    assert a.word[0] is v and a.word[1] == UnitVector.over((3, 0, -4), 5)
    assert tuple(a.word[1]) == (Fraction(3, 5), 0, Fraction(-4, 5))
    assert SpinElement(REP3, [tuple(v), tuple(v)]).word == (v, v)


def test_spin_word_forms_no_dense_product(monkeypatch):
    rep = build_gamma_rep(8)
    word = [unit_vector(Random(17), 8) for _ in range(4)]

    def refuse(*args):
        raise AssertionError("a spin word formed a dense product")

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", refuse)
        elt = SpinElement(rep, word)
    assert elt.spinor_mat == words.spinor_mat(8, word)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rho_rejects_the_spinor_matrix_of_another_word(n):
    # the certificate ties the word's rotation to the spinor matrix, so an
    # element whose matrix belongs to a word of another rotation is refused
    rep = build_gamma_rep(n)
    rng = Random(40 + n)
    checked = 0
    while checked < 5:
        a, b = random_spin(rep, rng), random_spin(rep, rng)
        if rho_n(a).mat == rho_n(b).mat:
            continue
        with pytest.raises(ValueError, match="does not conjugate"):
            rho_n(SpinElement._derived(rep, a.word, b.spinor_mat))
        checked += 1


def test_rho_homomorphism_and_double_cover():
    rng = Random(6)
    for n in (3, 4):
        rep = build_gamma_rep(n)
        for _ in range(100):
            a, b = random_spin(rep, rng), random_spin(rep, rng)
            rab = RationalRotation(rho_n(a).mat @ rho_n(b).mat)
            assert rho_n(a * b).mat == rab.mat
            assert rho_n(-a).mat == rho_n(a).mat
            assert a != -a
            assert rho_n(_inverse(a)).mat == rho_n(a).mat.transpose()


def test_double_angle_at_rational_points():
    for p in deterministic_circle_points(20):
        gen = spin_rotation_generator(REP3, p)
        assert rho_n(gen).mat == so2_block(p.square(), 1)


def test_rational_rotation_validation():
    with pytest.raises(ValueError):
        RationalRotation(Matrix([[1, 1], [0, 1]]))
    with pytest.raises(ValueError):
        RationalRotation(Matrix([[0, 1], [1, 0]]))  # determinant -1


def test_rho_rejects_corrupted_element():
    # a hand-corrupted spinor matrix whose conjugation leaves the gamma span;
    # the word route and both oracles must refuse it
    elt = SpinElement(REP3, ())
    elt.spinor_mat = Matrix([[1, 0], [0, 2]])
    for route in (rho_n, ref.rho_by_trace, ref.rho_by_products):
        with pytest.raises(ValueError):
            route(elt)
    # the spinor matrix U of a word, scaled off the unit circle, zeroed or
    # replaced by that of a word of another rotation: the intertwining
    # identity is linear in S, so it holds for the three multiples of U and
    # only the norm refuses them
    for n in range(2, 7):
        rep = build_gamma_rep(n)
        rng = Random(60 + n)
        a = random_spin(rep, rng)
        b = random_spin(rep, rng)
        while rho_n(b).mat == rho_n(a).mat:
            b = random_spin(rep, rng)
        u = a.spinor_mat
        for bad in (u.scaled(2), zeros(rep.s, rep.s), u.scaled(GaussianRational(1, 1)),
                    b.spinor_mat):
            with pytest.raises(ValueError, match="does not conjugate"):
                rho_n(SpinElement._derived(rep, a.word, bad))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_intertwining_alone_accepts_a_scaled_lift(n):
    # S gamma_alpha = C_alpha S is linear in S, so 2U satisfies it; rho_n
    # refuses 2U only through the norm ||S||_F^2 = s
    rep = build_gamma_rep(n)
    a = random_spin(rep, Random(70 + n))
    rot = rho_n(a).mat
    two_u = a.spinor_mat.scaled(2)
    assert intertwines(two_u, rep.cols, rep.phases, rot)
    assert frobenius_sq(two_u) == 4 * rep.s
    with pytest.raises(ValueError, match="does not conjugate"):
        rho_n(SpinElement._derived(rep, a.word, two_u))


def _dense_intertwines(s_mat: Matrix, gens, rot: Matrix) -> bool:
    """S g_alpha = (sum_beta R_beta,alpha g_beta) S for every alpha, by dense
    products with the dense generators gens."""
    for alpha, g in enumerate(gens):
        image = zeros(*s_mat.shape)
        for beta, h in enumerate(gens):
            image = image + h.scaled(rot[beta, alpha])
        if s_mat @ g != image @ s_mat:
            return False
    return True


def _with_entry(m: Matrix, i: int, j: int, value) -> Matrix:
    return Matrix(tuple(value if (r, c) == (i, j) else x for c, x in enumerate(row))
                  for r, row in enumerate(m.rows))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_intertwining_kernel_matches_dense_products(data):
    """``intertwines`` against the dense identity on reference_gammas'
    generators: a true word's S with the rotation of its word is accepted,
    and it is refused with one entry of S changed, with R's columns i != j
    swapped, with any one column of R negated and with a non-real R; a
    generator turned by i**k is accepted exactly when R maps its axis to
    itself up to sign."""
    n = data.draw(st.integers(2, 8), label="n")
    rep = build_gamma_rep(n)
    gens = reference_gammas.gammas(n)
    a = random_spin(rep, Random(data.draw(seeds, label="seed")))
    s_mat, rot = a.spinor_mat, ref.word_rotation(a.word, n)

    def verdict(s_mat, rot, phases=rep.phases, gens=gens):
        got = intertwines(s_mat, rep.cols, phases, rot)
        assert got == _dense_intertwines(s_mat, gens, rot)
        return got

    assert verdict(s_mat, rot)
    i, j = data.draw(st.integers(0, rep.s - 1)), data.draw(st.integers(0, rep.s - 1))
    assert not verdict(_with_entry(s_mat, i, j, s_mat[i, j] + 1), rot)
    p, q = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    swapped = [list(r) for r in rot.rows]
    for r in swapped:
        r[p], r[q] = r[q], r[p]
    assert not verdict(s_mat, Matrix(swapped))
    for alpha in range(n):
        negated = Matrix(tuple(-x if c == alpha else x for c, x in enumerate(r))
                         for r in rot.rows)
        assert not intertwines(s_mat, rep.cols, rep.phases, negated)
    assert not verdict(s_mat, _with_entry(rot, p, q, rot[p, q] + gr(0, 1)))
    b, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, 3))
    turned = tuple(tuple((x + k) % 4 for x in ph) if c == b else ph
                   for c, ph in enumerate(rep.phases))
    turned_gens = tuple(g.scaled((gr(1), gr(0, 1), gr(-1), gr(0, -1))[k]) if c == b else g
                        for c, g in enumerate(gens))
    axis = tuple(int(c == b) for c in range(n))
    fixed = rot.col(b) in (axis, tuple(-x for x in axis))
    assert verdict(s_mat, rot, turned, turned_gens) is fixed


def test_intertwining_kernel_refuses_mismatched_shapes():
    rep = build_gamma_rep(4)
    with pytest.raises(ValueError, match="shape mismatch"):
        intertwines(identity(2), rep.cols, rep.phases, identity(4))
    with pytest.raises(ValueError, match="shape mismatch"):
        intertwines(identity(4), rep.cols, rep.phases, identity(3))


def test_rho_forms_no_spinor_sized_product(monkeypatch):
    # at n = 6 the spinor dimension s = 8 differs from n, so an s x s operand
    # could only come from a product on the spinor side; the rotation is
    # composed on packed columns and certified by column dot products, so no
    # product of any size is formed
    rep = build_gamma_rep(6)
    a = random_spin(rep, Random(18))
    shapes = []
    matmul = Matrix.__matmul__

    def record(x, y):
        shapes.append((x.shape, y.shape))
        return matmul(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", record)
        rot = rho_n(a)
    assert rot.mat == ref.word_rotation(a.word, 6)
    assert shapes == []


def test_spin_element_refuses_a_passed_spinor_matrix():
    # the spinor matrix is always built from the word, never taken on trust
    with pytest.raises(TypeError):
        SpinElement(REP3, (), spinor_mat=identity(REP3.s))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), seeds)
def test_word_rho_agrees_with_trace_and_product_oracles(n, seed):
    rep = build_gamma_rep(n)
    rng = Random(seed)
    a = random_spin(rep, rng)
    elts = [a, _inverse(a), SpinElement.identity(rep), SpinElement.minus_one(rep)]
    if n >= 4:
        elts.append(iota_embed(random_spinc(build_gamma_rep(n - 2), rng), rep))
    for elt in elts:
        rot = rho_n(elt).mat
        assert rot == ref.rho_by_trace(elt).mat
        assert rot == ref.rho_by_products(elt).mat


def test_spinc_equality_cases():
    rng = Random(7)
    a = random_spin(REP3, rng)
    p = circle_point(rng)
    x = SpinCElement(p, a)
    assert x == SpinCElement(p, a)
    assert x == SpinCElement(-p, -a)
    assert x != SpinCElement(-p, a)


def test_rho_c_and_varsigma():
    rng = Random(8)
    one = SpinElement.identity(REP3)
    assert varsigma_n(SpinCElement(CIRCLE_ONE, one)) == CIRCLE_ONE
    assert varsigma_n(SpinCElement(CirclePoint(0, 1), one)) == CIRCLE_MINUS_ONE
    assert rho_n_c(SPINC_ONE).mat == identity(3)
    for _ in range(100):
        x = random_spinc(REP3, rng)
        y = random_spinc(REP3, rng)
        neg = x.negated_representative()
        assert rho_n_c(x).mat == rho_n_c(neg).mat
        assert varsigma_n(x) == varsigma_n(neg)
        rxy = RationalRotation(rho_n_c(x).mat @ rho_n_c(y).mat)
        assert rho_n_c(x * y).mat == rxy.mat
        assert varsigma_n(x * y) == varsigma_n(x) * varsigma_n(y)
        # output orthogonality is enforced by the RationalRotation type
        r = rho_n_c(x)
        assert r.mat.transpose() @ r.mat == identity(3)


def test_gamma_c_action():
    rng = Random(9)
    psi = submatrix(identity(2), 0, 2, 0, 1)
    one = SPINC_ONE
    assert gamma_c_mat(one) == identity(2)
    flip = SpinCElement(CIRCLE_MINUS_ONE, SpinElement.minus_one(REP3))
    assert gamma_c_mat(flip) == identity(2)  # <-1, -1> is the identity class
    for _ in range(100):
        x, y = random_spinc(REP3, rng), random_spinc(REP3, rng)
        assert gamma_c_mat(x * y) == gamma_c_mat(x) @ gamma_c_mat(y)
        assert gamma_c_mat(x * y) @ psi == gamma_c_mat(x) @ (gamma_c_mat(y) @ psi)
    with pytest.raises(ValueError):
        gamma_c_mat(one) @ identity(4)


def test_kernels_of_the_two_sequences():
    rng = Random(10)
    one = SpinElement.identity(REP3)
    for _ in range(30):
        x = random_spinc(REP3, rng)
        assert (rho_n_c(x).mat == identity(3)) == is_in_u1_subgroup(x)
        assert (varsigma_n(x) == CIRCLE_ONE) == is_in_spin_subgroup(x)
    u1 = SpinCElement(circle_point(rng), one)
    assert is_in_u1_subgroup(u1) and rho_n_c(u1).mat == identity(3)
    sp = SpinCElement(CIRCLE_MINUS_ONE, random_spin(REP3, rng))
    assert is_in_spin_subgroup(sp) and varsigma_n(sp) == CIRCLE_ONE


def test_iota_identity_and_rotation():
    big = build_gamma_rep(5)
    assert iota_embed(SPINC_ONE, big) == SpinElement.identity(big)
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
        assert submatrix(r, 0, 2, 0, 2) == Matrix([[ph2.c, -ph2.d], [ph2.d, ph2.c]])
        assert submatrix(r, 2, 5, 2, 5) == rho_n_c(x).mat
        assert iota_embed(x.negated_representative(), big) == emb
        assert iota_embed(x * y, big) == emb * iota_embed(y, big)
        if x != y:
            assert iota_embed(y, big) != emb
    with pytest.raises(ValueError):
        iota_embed(random_spinc(REP3, rng), build_gamma_rep(4))


def test_iota_kernel_is_z2():
    big = build_gamma_rep(5)
    one = SpinElement.identity(REP3)
    k0 = SpinCElement(CIRCLE_ONE, one)
    k1 = SpinCElement(CIRCLE_MINUS_ONE, one)
    assert k0 != k1
    for x in (k0, k1):
        assert rho_n(iota_embed(x, big)).mat == identity(5)
    assert iota_embed(k0, big).spinor_mat == identity(4)
    assert iota_embed(k1, big).spinor_mat == identity(4).scaled(-1)


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
    assert so2 == CIRCLE_ONE and x == SPINC_ONE
    # u = 0 (witness 1), v at angle pi: class <-1, 1, a>, and it round-trips
    b = random_spin(REP3, Random(14))
    so2_in = CIRCLE_ONE.square()  # carries witness 1
    x_in = SpinCElement(CIRCLE_MINUS_ONE, b)
    tr = hc_inverse(so2_in, x_in)
    assert tr == PhaseTriple(CIRCLE_MINUS_ONE, CIRCLE_ONE, b)
    so2_out, x_out = hc_forward(tr)
    assert so2_out == so2_in and x_out == x_in


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
        assert p12 == p1 * p2 and x12 == x1 * x2


def test_triple_class_equality():
    rng = Random(16)
    a = random_spin(REP3, rng)
    t, s = circle_point(rng), circle_point(rng)
    tr = PhaseTriple(t, s, a)
    assert tr == PhaseTriple(-t, -s, a)
    assert tr == PhaseTriple(-t, s, -a)
    assert tr == PhaseTriple(t, -s, -a)
    assert not (tr == PhaseTriple(-t, s, a)) or a == -a
