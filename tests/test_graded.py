from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.graded import (GRADES, GradedElement, bracket, closure_flags,
                             grade_basis, grade_mask, grade_project, h_gram,
                             heisenberg_gram, is_levi_member, is_parabolic_member,
                             levi_bracket, random_element, standard_neg1_basis)
from twodirac.linalg import (Matrix, block, det, identity, inverse, masked, mirrored,
                             rank, zeros)
from twodirac.sampling import rotation
from twodirac.scalars import gr

import reference_graded as layout
from strategies import levi_blocks, matrices, seeds, small_ints, vectors


def element(n, **blocks):
    """The element with the given blocks, all others zero."""
    return GradedElement(n, layout.join(n, blocks))


def test_shape_and_skewness_validation():
    with pytest.raises(ValueError):
        element(2)  # n too small
    with pytest.raises(ValueError):  # B not skew
        element(3, A=identity(2), B=Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        element(3, X=zeros(2, 3))  # wrong block shape
    for i in GRADES:  # of grade i, but not in so(h)
        with pytest.raises(ValueError):
            GradedElement(3, _cut(3, i))


def test_assemble_layout():
    n = 3
    e = element(n, A=identity(2))
    m = e.mat
    assert m[0, 0] == 1 and m[1, 1] == 1
    assert m[n + 2, n + 2] == -1 and m[n + 3, n + 3] == -1
    assert element(n).mat.is_zero()
    z = Matrix([[1, 2], [3, 4], [5, 6]])
    m = element(n, Z=z).mat
    assert m[0, 2] == 1 and m[1, 2] == 2  # Z^T in the top middle
    assert m[2, n + 2] == -1 and m[2, n + 3] == -2  # -Z in the middle right


def test_assembled_matrices_lie_in_orthogonal_algebra():
    rng = Random(0)
    for n in (3, 4, 6):
        h = h_gram(n)
        for _ in range(20):
            m = random_element(n, rng).mat
            assert m.transpose() @ h + h @ m == zeros(n + 4, n + 4)


def test_disassemble_round_trip_and_rejection():
    rng = Random(1)
    e = random_element(4, rng)
    assert GradedElement(4, e.mat) == e
    with pytest.raises(ValueError):
        GradedElement(4, identity(8))  # -A^T block inconsistent
    with pytest.raises(ValueError):
        GradedElement(4, identity(7))


def test_grade_projections():
    rng = Random(2)
    n = 4
    e = random_element(n, rng)
    assert grade_project(e, 0).A == e.A and grade_project(e, 0).B == e.B
    assert grade_project(e, 0).X.is_zero()
    total = element(n)
    for i in GRADES:
        p = grade_project(e, i)
        assert grade_project(p, i) == p
        for j in GRADES:
            if j != i:
                assert grade_project(p, j).is_zero()
        total = total + p
    assert total == e
    with pytest.raises(ValueError):
        grade_project(e, 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_grading_closure_all_pairs(n):
    bases = {i: grade_basis(n, i) for i in GRADES}
    for i, j in product(GRADES, repeat=2):
        for ei in bases[i]:
            for ej in bases[j]:
                br = bracket(ei, ej)
                for k in GRADES:
                    if k != i + j:
                        assert grade_project(br, k).is_zero(), (i, j, k)
    # the stacked products flag the grade pairs this sweep flags: none
    assert closure_flags(n, bases) == frozenset()


def _sweep_flags(bases):
    """The grade pairs (i, j) in which the per-pair sweep finds a basis
    bracket with a component off grade i + j."""
    return {(i, j) for i, j in product(GRADES, repeat=2)
            if any(not grade_project(bracket(a, b), k).is_zero()
                   for a in bases[i] for b in bases[j] for k in GRADES if k != i + j)}


def _leaking(n, i, j):
    """The grade bases with the first grade-i element plus a grade-j one:
    still in so(h), but no longer of one grade."""
    bases = {g: grade_basis(n, g) for g in GRADES}
    bases[i] = [bases[i][0] + bases[j][0]] + bases[i][1:]
    return bases


def _cut(n, i):
    """The first grade-i basis element E_rc - E_sigma(c)sigma(r) cut to E_rc:
    still of grade i, no longer in so(h)."""
    return Matrix([[max(x, 0) for x in row] for row in grade_basis(n, i)[0].mat.rows])


LEAKS = [(-2, 1), (-1, 0), (0, 1), (1, -1), (2, 0)]


@pytest.mark.parametrize("i, j", LEAKS)
def test_closure_flags_agree_with_the_sweep_on_a_leaking_basis(i, j):
    bases = _leaking(3, i, j)
    flags, swept = closure_flags(3, bases), _sweep_flags(bases)
    assert swept and swept <= flags
    # a grade with one element has one self-bracket [e, e] = 0, which the
    # sweep passes and the leaking product e e flags
    assert flags - swept == ({(i, i)} if len(bases[i]) == 1 else set())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closure_flags_agree_with_the_dense_certificate_on_clean_bases(n):
    bases = {i: grade_basis(n, i) for i in GRADES}
    assert closure_flags(n, bases) == layout.closure_flags(n, bases) == frozenset()


@pytest.mark.parametrize("bases", [
    pytest.param(_leaking(3, i, j), id=f"leak({i},{j})") for i, j in LEAKS])
def test_closure_flags_agree_with_the_dense_certificate_on_planted_bases(bases):
    # a leaking element stays in so(h) but leaves its grade
    flags = closure_flags(3, bases)
    assert flags and flags == layout.closure_flags(3, bases)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_random_element_draws_as_the_block_assembled_sampler(n):
    # two draws from one generator: the same entries in the same order, and
    # the same number of draws per element
    for seed in range(20):
        rng, ref = Random(seed), Random(seed)
        for _ in range(2):
            assert random_element(n, rng).mat == layout.random_element(n, ref)


def test_bracket_self_and_pure_grade():
    n = 3
    rng = Random(3)
    e = random_element(n, rng)
    assert bracket(e, e).is_zero()
    x1 = grade_project(random_element(n, rng), -1)
    x2 = grade_project(random_element(n, rng), -1)
    br = bracket(x1, x2)
    assert grade_project(br, -2) == br  # only the Y block survives


def test_jacobi_identity():
    rng = Random(4)
    for n in (3, 5):
        for _ in range(50):
            a, b, c = (random_element(n, rng) for _ in range(3))
            jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                   + bracket(c, bracket(a, b)))
            assert jac.is_zero()


def test_levi_bracket_frozen_example():
    # oracle: the same value from the assembled commutator's grade -2 block
    n = 3
    x1 = Matrix([[1, 0], [0, 0], [0, 0]])
    x2 = Matrix([[0, 1], [0, 0], [0, 0]])
    want = Matrix([[0, -1], [1, 0]])
    assert levi_bracket(x1, x2) == want
    br = bracket(element(n, X=x1), element(n, X=x2))
    assert layout.split(br.mat, n)["Y"] == want and grade_project(br, -2) == br


def test_levi_bracket_shape_error():
    with pytest.raises(ValueError):
        levi_bracket(Matrix([[1, 0], [0, 1]]), Matrix([[1], [0]]))


@settings(max_examples=50, deadline=None)
@given(levi_blocks, levi_blocks, levi_blocks)
def test_levi_bracket_bilinear_skew(x1, x2, x3):
    assert levi_bracket(x1, x2) == -levi_bracket(x2, x1)
    assert levi_bracket(x1, x1).is_zero()
    assert levi_bracket(x1 + x3, x2) == levi_bracket(x1, x2) + levi_bracket(x3, x2)


def test_levi_bracket_agrees_with_full_bracket():
    rng = Random(5)
    for n in (3, 4):
        for _ in range(20):
            x1 = grade_project(random_element(n, rng), -1).X
            x2 = grade_project(random_element(n, rng), -1).X
            br = bracket(element(n, X=x1), element(n, X=x2))
            assert layout.split(br.mat, n)["Y"] == levi_bracket(x1, x2)


def test_g0_action_on_grade_minus_one():
    rng = Random(6)
    n = 4
    for _ in range(25):
        e0 = grade_project(random_element(n, rng), 0)
        x = grade_project(random_element(n, rng), -1)
        br = bracket(e0, x)
        assert grade_project(br, -1) == br
        assert br.X == e0.B @ x.X - x.X @ e0.A


def test_heisenberg_gram_structure():
    # hand computation: the form pairs E_{a,1} with E_{a,2} and nothing else,
    # so in the column-major basis the gram matrix is [[0, -I], [I, 0]]
    for n in (3, 4, 5, 6, 7, 8):
        g = heisenberg_gram(n)
        eye = identity(n)
        assert g == block([[zeros(n, n), -eye], [eye, zeros(n, n)]])
        assert g.transpose() == -g
        assert det(g) != 0
        assert rank(g) == 2 * n
    assert det(heisenberg_gram(3)) == 1


def test_grade_minus_two_is_spanned_by_levi_brackets():
    n = 3
    vals = [levi_bracket(b1, b2)[0, 1] for b1 in standard_neg1_basis(n)
            for b2 in standard_neg1_basis(n)]
    assert any(vals)  # dim 1, so one nonzero value spans


def test_membership_identity_and_levi_block():
    n = 3
    eye = identity(n + 4)
    assert is_parabolic_member(eye, n) and is_levi_member(eye, n)
    c = Matrix([[1, 2], [1, 3]])  # det 1 > 0
    d = rotation(Random(7), n)
    g = block([[c, zeros(2, n), zeros(2, 2)],
               [zeros(n, 2), d, zeros(n, 2)],
               [zeros(2, 2), zeros(2, n), inverse(c).transpose()]])
    assert is_parabolic_member(g, n)
    assert is_levi_member(g, n)


def test_membership_unipotent():
    # exact exponential of a nilpotent grade +1 element: I + N + N^2/2
    n = 3
    nil = element(n, Z=Matrix([[1, 2], [0, 1], [3, 0]])).mat
    sq = nil @ nil
    assert (sq @ nil).is_zero()
    expn = identity(n + 4) + nil + sq.scaled(Fraction(1, 2))
    assert is_parabolic_member(expn, n)
    assert not is_levi_member(expn, n)
    # grade -1 unipotents do not even preserve the filtration
    lower = element(n, X=Matrix([[1, 0], [0, 1], [0, 0]])).mat
    sq = lower @ lower
    exl = identity(n + 4) + lower + sq.scaled(Fraction(1, 2))
    assert not is_parabolic_member(exl, n)


def test_membership_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        is_parabolic_member(identity(7).scaled(2), 3)
    with pytest.raises(ValueError):
        is_levi_member(Matrix([[2 if i == j and i == 0 else (1 if i == j else 0)
                              for j in range(7)] for i in range(7)]), 3)


def test_membership_checks_the_form_before_using_h_gt_h():
    # the membership tests conjugate by H g^T H, which is g^-1 only for
    # g^T H g = H; each matrix here must be refused, not conjugated
    n = 3
    shear = [[1 if i == j else 0 for j in range(n + 4)] for i in range(n + 4)]
    shear[0][1] = 1  # det 1, but g^T H g != H
    reflection = [[1 if i == j else 0 for j in range(n + 4)] for i in range(n + 4)]
    reflection[2][2] = -1  # g^T H g = H, but det -1
    for g in (Matrix(shear), Matrix(reflection)):
        for member in (is_parabolic_member, is_levi_member):
            with pytest.raises(ValueError):
                member(g, n)


def trace_form(e, f):
    """Trace form pairing; puts grade -2 in duality with +2 and -1 with +1."""
    m = e.mat @ f.mat
    return sum(m[i, i] for i in range(m.nrows))


def test_trace_form_dual_pairing():
    n = 3
    y = grade_basis(n, -2)[0]
    w = grade_basis(n, 2)[0]
    assert trace_form(y, w) != 0
    assert trace_form(y, y) == 0
    x = grade_basis(n, -1)[0]
    z = grade_basis(n, 1)[0]
    assert trace_form(x, z) != 0
    assert trace_form(x, y) == 0


def _span_rank(mats):
    return rank(Matrix([tuple(x for row in m.rows for x in row) for m in mats]))


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 5), seeds)
def test_grading_agrees_with_block_layout_oracle(n, seed):
    rng = Random(seed)
    e, f = random_element(n, rng), random_element(n, rng)
    # a rational and a Gaussian multiple: numerators over a denominator != 1,
    # with imaginary parts in the second
    t = Fraction(rng.randint(1, 6), 7)
    z = GradedElement(n, e.mat.scaled(gr(t, Fraction(rng.randint(1, 4), 5))))
    for g in (e, f, bracket(e, f), GradedElement(n, f.mat.scaled(t)), z):
        for i in GRADES:
            assert grade_project(g, i).mat == layout.project(g.mat, n, i)
    dims = {-2: 1, -1: 2 * n, 0: 4 + n * (n - 1) // 2, 1: 2 * n, 2: 1}
    for i in GRADES:
        basis = [b.mat for b in grade_basis(n, i)]
        oracle = layout.grade_space(n, i)
        assert len(basis) == len(oracle) == dims[i]
        assert _span_rank(basis) == _span_rank(oracle + basis) == dims[i]
    # one perturbed entry breaks the mirror relation, wherever it sits, also
    # when only its imaginary part moves
    r, c = rng.randrange(n + 4), rng.randrange(n + 4)
    for g, unit in ((e, 1), (z, gr(0, 1))):
        bad = Matrix([[x + unit * (a == r and b == c) for b, x in enumerate(row)]
                      for a, row in enumerate(g.mat.rows)])
        with pytest.raises(ValueError):
            layout.split(bad, n)
        with pytest.raises(ValueError):
            GradedElement(n, bad)


@pytest.mark.parametrize("n", range(3, 9))
def test_grade_masks_partition_the_entries_mirror_symmetrically(n):
    # disjoint 0/1 masks summing to all ones, each fixed by (r, c) -> (sigma c,
    # sigma r): so a projection of an element of so(h) stays in so(h)
    k = n + 4
    sigma = tuple(row.index(1) for row in h_gram(n).rows)
    masks = [grade_mask(n, i) for i in GRADES]
    total = zeros(k, k)
    for a, mask in enumerate(masks):
        assert {x for row in mask.rows for x in row} <= {0, 1}
        assert mirrored(mask, sigma) == -mask
        for other in masks[a + 1:]:
            assert masked(mask, other).is_zero()
        total = total + mask
    assert total == Matrix([[1] * k] * k)


def _unipotent(n, **blocks):
    # exact exponential I + N + N^2/2: the grades of N share one sign, so N^3 = 0
    nil = element(n, **blocks).mat
    return identity(n + 4) + nil + (nil @ nil).scaled(Fraction(1, 2))


@settings(max_examples=15, deadline=None)
@given(st.integers(3, 4), seeds,
       vectors(small_ints, 4).filter(lambda e: e[0] * e[3] != e[1] * e[2]),
       st.booleans(), st.booleans(), st.data())
def test_membership_agrees_with_dense_conjugation_oracle(n, seed, c, upper, lower, data):
    # g = Levi element * upper unipotent * lower unipotent; g lies in the
    # parabolic subgroup iff the lower factor is trivial, and in the Levi
    # subgroup iff both unipotent factors are
    c = Matrix([c[:2], c[2:]])
    g = block([[c, zeros(2, n), zeros(2, 2)],
               [zeros(n, 2), rotation(Random(seed), n), zeros(n, 2)],
               [zeros(2, 2), zeros(2, n), inverse(c).transpose()]])
    w = data.draw(st.integers(1, 3))
    if upper:
        z = data.draw(matrices(small_ints, n, 2))
        g = g @ _unipotent(n, Z=z, W=Matrix([[0, w], [-w, 0]]))
    if lower:
        x = data.draw(matrices(small_ints, n, 2))
        g = g @ _unipotent(n, X=x, Y=Matrix([[0, w], [-w, 0]]))
    parabolic, levi = is_parabolic_member(g, n), is_levi_member(g, n)
    assert parabolic == layout.conjugation_keeps_grades(g, n, lambda i, j: j < i)
    assert levi == layout.conjugation_keeps_grades(g, n, lambda i, j: j != i)
    assert parabolic == (not lower)
    assert levi == (not upper and not lower)
