from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.graded import (GRADES, DisassemblyError, GradedElement, assemble,
                             bracket, disassemble, element, grade_basis,
                             grade_project, h_gram, heisenberg_gram,
                             is_levi_member, is_parabolic_member, levi_bracket,
                             random_element, standard_neg1_basis, trace_form,
                             zero_element)
from twodirac.linalg import (block, det, identity_q, inverse, qmat, rank,
                             zeros_q)
from twodirac.sampling import rotation


def test_shape_and_skewness_validation():
    with pytest.raises(ValueError):
        element(2)  # n too small
    with pytest.raises(ValueError):
        GradedElement(3, qmat([[1, 0], [0, 1]]), qmat([[0, 1, 0], [1, 0, 0],
                      [0, 0, 0]]), zeros_q(3, 2), zeros_q(2, 2), zeros_q(3, 2),
                      zeros_q(2, 2))  # B not skew
    with pytest.raises(ValueError):
        element(3, X=zeros_q(2, 3))  # wrong block shape


def test_assemble_layout():
    n = 3
    e = element(n, A=identity_q(2))
    m = assemble(e)
    assert m[0, 0] == 1 and m[1, 1] == 1
    assert m[n + 2, n + 2] == -1 and m[n + 3, n + 3] == -1
    assert assemble(zero_element(n)).is_zero()
    z = qmat([[1, 2], [3, 4], [5, 6]])
    m = assemble(element(n, Z=z))
    assert m[0, 2] == 1 and m[1, 2] == 2  # Z^T in the top middle
    assert m[2, n + 2] == -1 and m[2, n + 3] == -2  # -Z in the middle right


def test_assembled_matrices_lie_in_orthogonal_algebra():
    rng = Random(0)
    for n in (3, 4, 6):
        h = h_gram(n)
        for _ in range(20):
            m = assemble(random_element(n, rng))
            assert m.transpose() @ h + h @ m == zeros_q(n + 4, n + 4)


def test_disassemble_round_trip_and_rejection():
    rng = Random(1)
    e = random_element(4, rng)
    assert disassemble(assemble(e), 4) == e
    with pytest.raises(DisassemblyError):
        disassemble(identity_q(8), 4)  # -A^T block inconsistent
    with pytest.raises(DisassemblyError):
        disassemble(identity_q(7), 4)


def test_grade_projections():
    rng = Random(2)
    n = 4
    e = random_element(n, rng)
    assert grade_project(e, 0).A == e.A and grade_project(e, 0).B == e.B
    assert grade_project(e, 0).X.is_zero()
    total = zero_element(n)
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


@pytest.mark.parametrize("n", [3, 4, 5])
def test_grading_closure_all_pairs(n):
    bases = {i: grade_basis(n, i) for i in GRADES}
    for i, j in product(GRADES, repeat=2):
        for ei in bases[i]:
            for ej in bases[j]:
                br = bracket(ei, ej)
                for k in GRADES:
                    if k != i + j:
                        assert grade_project(br, k).is_zero(), (i, j, k)


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
    x1 = qmat([[1, 0], [0, 0], [0, 0]])
    x2 = qmat([[0, 1], [0, 0], [0, 0]])
    want = qmat([[0, -1], [1, 0]])
    assert levi_bracket(x1, x2) == want
    br = bracket(element(n, X=x1), element(n, X=x2))
    assert br.Y == want and grade_project(br, -2) == br


def test_levi_bracket_shape_error():
    with pytest.raises(ValueError):
        levi_bracket(qmat([[1, 0], [0, 1]]), qmat([[1], [0]]))


small_ints = st.integers(-6, 6)


@st.composite
def nx2_blocks(draw, n=3):
    return qmat([[draw(small_ints), draw(small_ints)] for _ in range(n)])


@settings(max_examples=50, deadline=None)
@given(nx2_blocks(), nx2_blocks(), nx2_blocks())
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
            assert br.Y == levi_bracket(x1, x2)


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
        eye = identity_q(n)
        assert g == block([[zeros_q(n, n), -eye], [eye, zeros_q(n, n)]])
        assert g.transpose() == -g
        assert det(g) != 0
        assert rank(g) == 2 * n
    assert det(heisenberg_gram(3)) == 1


def test_heisenberg_gram_custom_basis_and_errors():
    n = 3
    basis = standard_neg1_basis(n)
    basis[0] = basis[0] + basis[1]  # still spanning
    g = heisenberg_gram(n, basis)
    assert det(g) != 0
    bad = [basis[0]] * (2 * n)
    with pytest.raises(ValueError):
        heisenberg_gram(n, bad)
    with pytest.raises(ValueError):
        heisenberg_gram(n, basis[:3])


def test_grade_minus_two_is_spanned_by_levi_brackets():
    n = 3
    vals = [levi_bracket(b1, b2)[0, 1] for b1 in standard_neg1_basis(n)
            for b2 in standard_neg1_basis(n)]
    assert any(vals)  # dim 1, so one nonzero value spans


def test_membership_identity_and_levi_block():
    n = 3
    eye = identity_q(n + 4)
    assert is_parabolic_member(eye, n) and is_levi_member(eye, n)
    c = qmat([[1, 2], [1, 3]])  # det 1 > 0
    d = rotation(Random(7), n)
    g = block([[c, zeros_q(2, n), zeros_q(2, 2)],
               [zeros_q(n, 2), d, zeros_q(n, 2)],
               [zeros_q(2, 2), zeros_q(2, n), inverse(c).transpose()]])
    assert is_parabolic_member(g, n)
    assert is_levi_member(g, n)


def test_membership_unipotent():
    # exact exponential of a nilpotent grade +1 element: I + N + N^2/2
    n = 3
    nil = assemble(element(n, Z=qmat([[1, 2], [0, 1], [3, 0]])))
    sq = nil @ nil
    assert (sq @ nil).is_zero()
    expn = identity_q(n + 4) + nil + sq.scaled(Fraction(1, 2))
    assert is_parabolic_member(expn, n)
    assert not is_levi_member(expn, n)
    # grade -1 unipotents do not even preserve the filtration
    lower = assemble(element(n, X=qmat([[1, 0], [0, 1], [0, 0]])))
    sq = lower @ lower
    exl = identity_q(n + 4) + lower + sq.scaled(Fraction(1, 2))
    assert not is_parabolic_member(exl, n)


def test_membership_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        is_parabolic_member(identity_q(7).scaled(2), 3)
    with pytest.raises(ValueError):
        is_levi_member(qmat([[2 if i == j and i == 0 else (1 if i == j else 0)
                              for j in range(7)] for i in range(7)]), 3)


def test_membership_checks_the_form_before_using_h_gt_h():
    # the membership tests conjugate by H g^T H, which is g^-1 only for
    # g^T H g = H; each matrix here must be refused, not conjugated
    n = 3
    shear = [[1 if i == j else 0 for j in range(n + 4)] for i in range(n + 4)]
    shear[0][1] = 1  # det 1, but g^T H g != H
    reflection = [[1 if i == j else 0 for j in range(n + 4)] for i in range(n + 4)]
    reflection[2][2] = -1  # g^T H g = H, but det -1
    for g in (qmat(shear), qmat(reflection)):
        for member in (is_parabolic_member, is_levi_member):
            with pytest.raises(ValueError):
                member(g, n)


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
