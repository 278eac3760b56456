from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodirac.graded import levi_bracket
from twodirac.linalg import (Matrix, block, hstack, identity, rank, submatrix,
                             vstack, zeros)
from twodirac.sampling import circle_point, rotation
from twodirac.scalars import CirclePoint
from twodirac.stiefel import (Frame2, OrientedPlane, StiefelTangent,
                              center_rotate, contact_alpha, frame_to_isotropic,
                              in_contact_distribution, infinitesimal_rotation,
                              is_isotropic, isotropic_to_frame, ksharp_act,
                              levi_form_H, levi_witness, plane_act, quotient_q,
                              random_contact_tangent,
                              random_frame_with_complement, random_tangent,
                              reeb_field, standard_frame, tangent_coordinates,
                              tangent_from_skew)

import reference_stiefel as ref

N = 3


def cols(*vecs) -> Matrix:
    """The matrix whose columns are the given vectors."""
    return Matrix(zip(*vecs))


def e(i, k=N + 2):
    return tuple(int(i == j) for j in range(k))


def column(m: Matrix, j: int) -> Matrix:
    return submatrix(m, 0, m.nrows, j, j + 1)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame2(cols(e(0), e(0)))  # not orthogonal
    with pytest.raises(ValueError):
        Frame2(cols((2, 0, 0, 0, 0), e(1)))  # not unit
    with pytest.raises(ValueError):
        Frame2(cols(e(0), e(1), e(2)))  # k x 3
    with pytest.raises(ValueError):
        Frame2(cols(e(0)))  # k x 1
    with pytest.raises(ValueError):
        Frame2(cols((1, 1, 0, 0, 0), (1, -1, 0, 0, 0)))  # F^T F = 2 I
    assert standard_frame(N).mat == cols(e(0), e(1))


def test_tangent_validation():
    f = standard_frame(N)
    zero = (0,) * (N + 2)
    StiefelTangent(f, cols(e(2), e(3)))
    StiefelTangent(f, cols(e(1), tuple(-x for x in e(0))))  # <w1, v2> = -<w2, v1>
    # each linearized constraint refused on its own
    with pytest.raises(ValueError):
        StiefelTangent(f, cols(e(0), zero))  # <w1, v1> != 0
    with pytest.raises(ValueError):
        StiefelTangent(f, cols(zero, e(1)))  # <w2, v2> != 0
    with pytest.raises(ValueError):
        StiefelTangent(f, cols(e(1), zero))  # <w1, v2> + <w2, v1> != 0
    # wrong shapes
    with pytest.raises(ValueError):
        StiefelTangent(f, cols(e(2), e(3), e(4)))
    with pytest.raises(ValueError):
        StiefelTangent(f, cols(e(2)))
    with pytest.raises(ValueError):
        StiefelTangent(f, cols(e(2, N + 3), e(3, N + 3)))


def test_frame_to_isotropic_origin():
    f = standard_frame(N)
    u = frame_to_isotropic(f)
    assert u == cols((1, 0, 1, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0, 0))
    assert is_isotropic(u)  # -1 + 1 on each diagonal entry
    assert not is_isotropic(vstack(identity(2), f.mat.scaled(2)))
    assert not is_isotropic(cols((1, 0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0)) + u)


def test_isotropy_for_seeded_frames():
    rng = Random(0)
    for _ in range(25):
        f, _ = random_frame_with_complement(N, rng)
        u = frame_to_isotropic(f)
        assert is_isotropic(u)
        assert isotropic_to_frame(u) == f


def test_isotropic_round_trip_under_split_isometries():
    # translate the origin plane by block rotations of the split space, then
    # renormalize the basis; the result must be the translated frame
    rng = Random(1)
    for _ in range(20):
        f = random_frame_with_complement(N, rng)[0]
        a = rotation(rng, 2)
        b = rotation(rng, N + 2)
        isometry = block([[a, zeros(2, N + 2)], [zeros(N + 2, 2), b]])
        moved = isometry @ frame_to_isotropic(f)
        assert is_isotropic(moved)
        assert isotropic_to_frame(moved) == ksharp_act(a, b, f)


def test_isotropic_to_frame_rejects_bad_input():
    with pytest.raises(ValueError):
        isotropic_to_frame(cols((0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0)))
    with pytest.raises(ValueError):
        isotropic_to_frame(cols((1, 0, 1, 0, 0, 0, 0)))


def test_ksharp_action_properties():
    rng = Random(2)
    f = standard_frame(N)
    eye2, eyebig = identity(2), identity(N + 2)
    assert ksharp_act(eye2, eyebig, f) == f
    # stabilizer of the standard frame: A acting on both the frame slot and
    # the first two ambient coordinates cancels out
    p = circle_point(rng)
    a = Matrix([[p.c, -p.d], [p.d, p.c]])
    b = Matrix([[a[i, j] if i < 2 and j < 2 else (1 if i == j else 0)
               for j in range(N + 2)] for i in range(N + 2)])
    assert ksharp_act(a, b, f) == f
    # group action: acting twice equals acting by the product
    for _ in range(10):
        a1, a2 = rotation(rng, 2), rotation(rng, 2)
        b1, b2 = rotation(rng, N + 2), rotation(rng, N + 2)
        g = random_frame_with_complement(N, rng)[0]
        assert (ksharp_act(a2, b2, ksharp_act(a1, b1, g))
                == ksharp_act(a2 @ a1, b2 @ b1, g))
    with pytest.raises(ValueError):
        ksharp_act(Matrix([[1, 1], [0, 1]]), eyebig, f)


def test_center_action_moves_frame_not_plane():
    rng = Random(3)
    f = random_frame_with_complement(N, rng)[0]
    p = CirclePoint(Fraction(3, 5), Fraction(4, 5))
    g = center_rotate(f, p)
    assert g != f
    assert quotient_q(g) == quotient_q(f)


def test_contact_alpha_and_reeb():
    rng = Random(4)
    for _ in range(25):
        f, comp = random_frame_with_complement(N, rng)
        r = reeb_field(f)
        v1, v2 = f.mat.col(0), f.mat.col(1)
        assert r.mat == cols(tuple(-x for x in v2), v1)
        assert contact_alpha(r) == 1
        assert not in_contact_distribution(r)
        t = random_contact_tangent(f, comp, rng)
        assert contact_alpha(t) == 0
        # linearity in the tangent
        t2 = random_contact_tangent(f, comp, rng)
        both = StiefelTangent(f, t.mat + t2.mat.scaled(Fraction(7, 2)))
        assert contact_alpha(both) == 0
        shifted = StiefelTangent(f, t.mat + r.mat.scaled(Fraction(5, 3)))
        assert contact_alpha(shifted) == Fraction(5, 3)


def test_reeb_frozen_example_and_image():
    f = standard_frame(N)
    r = reeb_field(f)
    assert r.mat == cols((0, -1, 0, 0, 0), (1, 0, 0, 0, 0))
    # its infinitesimal rotation has image exactly the frame's plane
    psi = infinitesimal_rotation(r)
    proj = quotient_q(f).projector
    assert proj @ psi == psi  # image inside the plane
    assert rank(psi) == 2


def test_kernel_characterization():
    rng = Random(5)
    hits = 0
    for _ in range(120):
        f, comp = random_frame_with_complement(N, rng)
        t = random_tangent(f, rng)
        assert (contact_alpha(t) == 0) == in_contact_distribution(t)
        if contact_alpha(t) == 0:
            hits += 1
        t0 = random_contact_tangent(f, comp, rng)
        assert contact_alpha(t0) == 0 and in_contact_distribution(t0)
    # the kernel has codimension one: random tangents almost never land in it
    assert hits < 5


def test_contact_distribution_dimension():
    # the kernel of alpha is spanned by the 2n off-plane directions; adding
    # the reeb direction fills the whole (2n+1)-dimensional tangent space
    rng = Random(6)
    f, comp = random_frame_with_complement(N, rng)
    vecs = []
    for j in range(N):
        b1 = comp.col(j)
        vecs.append(b1 + (0,) * (N + 2))
        vecs.append((0,) * (N + 2) + b1)
    assert rank(Matrix(vecs)) == 2 * N
    r = reeb_field(f)
    vecs.append(r.mat.col(0) + r.mat.col(1))
    assert rank(Matrix(vecs)) == 2 * N + 1


def levi_gram(f: Frame2, comp: Matrix) -> Matrix:
    """The Levi form's Gram matrix on the tangents (b | 0) and (0 | b) for
    the complement's columns b."""
    zero = zeros(N + 2, 1)
    bs = [column(comp, j) for j in range(N)]
    basis = [StiefelTangent(f, hstack(b, zero)) for b in bs]
    basis += [StiefelTangent(f, hstack(zero, b)) for b in bs]
    return Matrix([[levi_form_H(f, t1, t2) for t2 in basis] for t1 in basis])


def test_levi_form_gram_nondegenerate_at_every_sampled_frame():
    rng = Random(14)
    for _ in range(10):
        assert rank(levi_gram(*random_frame_with_complement(N, rng))) == 2 * N


def test_alpha_invariance_under_ksharp():
    rng = Random(7)
    for _ in range(15):
        f, _ = random_frame_with_complement(N, rng)
        t = random_tangent(f, rng)
        a = rotation(rng, 2)
        b = rotation(rng, N + 2)
        g = ksharp_act(a, b, f)
        t2 = StiefelTangent(g, b @ t.mat @ a.transpose())
        assert contact_alpha(t2) == contact_alpha(t)


def test_levi_form_basic_values():
    rng = Random(8)
    f, comp = random_frame_with_complement(N, rng)
    u, zero = column(comp, 0), zeros(N + 2, 1)
    t1 = StiefelTangent(f, hstack(u, zero))
    t2 = StiefelTangent(f, hstack(zero, u))
    assert levi_form_H(f, t1, t1) == 0
    assert levi_form_H(f, t1, t2) == -1  # +-1 depending on slot order
    assert levi_form_H(f, t2, t1) == 1
    r = reeb_field(f)
    with pytest.raises(ValueError):
        levi_form_H(f, r, t1)


def test_levi_form_nondegenerate_and_matches_heisenberg():
    rng = Random(9)
    for _ in range(25):
        f, comp = random_frame_with_complement(N, rng)
        t1 = random_contact_tangent(f, comp, rng)
        t2 = random_contact_tangent(f, comp, rng)
        val = levi_form_H(f, t1, t2)
        assert val == -levi_form_H(f, t2, t1)
        w = levi_witness(t1)
        assert levi_form_H(f, t1, w) == (t1.mat.transpose() @ t1.mat).trace() > 0
        x1 = tangent_coordinates(t1, comp)
        x2 = tangent_coordinates(t2, comp)
        # cross-module identity with the fixed global sign +1
        assert val == levi_bracket(x1, x2)[0, 1]


def test_levi_form_gram_nondegenerate():
    rng = Random(10)
    assert rank(levi_gram(*random_frame_with_complement(N, rng))) == 2 * N


def _expm(a, terms=30):
    out = np.eye(a.shape[0])
    acc = np.eye(a.shape[0])
    for k in range(1, terms):
        acc = acc @ a / k
        out = out + acc
    return out


def test_levi_form_against_finite_difference_oracle():
    """Independent check of the algebraic pairing against d(alpha).

    Extend two contact tangents to the linear fields V_psi(frame) =
    (psi v1, psi v2) generated by fixed skew matrices, flow with matrix
    exponentials, and assemble d(alpha)(X, Y) = X(alpha(Y)) - Y(alpha(X))
    - alpha([X, Y]) from central differences; the algebraic form is -d(alpha).
    """
    rng = Random(11)
    for _ in range(6):
        f, comp = random_frame_with_complement(N, rng)
        t1 = random_contact_tangent(f, comp, rng)
        t2 = random_contact_tangent(f, comp, rng)
        p1 = np.array([[float(x) for x in row]
                       for row in infinitesimal_rotation(t1).rows])
        p2 = np.array([[float(x) for x in row]
                       for row in infinitesimal_rotation(t2).rows])
        v1 = np.array([float(x) for x in f.mat.col(0)])
        v2 = np.array([float(x) for x in f.mat.col(1)])

        def alpha_of_field(psi, base1, base2):
            return -float(np.dot(psi @ base1, base2))

        h = 1e-6

        def deriv(flow_gen, field_gen):
            vals = []
            for s in (h, -h):
                g = _expm(s * flow_gen)
                vals.append(alpha_of_field(field_gen, g @ v1, g @ v2))
            return (vals[0] - vals[1]) / (2 * h)

        x_alpha_y = deriv(p1, p2)
        y_alpha_x = deriv(p2, p1)
        commutator = p2 @ p1 - p1 @ p2  # [V_A, V_B] = V_{BA - AB}
        alpha_bracket = alpha_of_field(commutator, v1, v2)
        d_alpha = x_alpha_y - y_alpha_x - alpha_bracket
        assert abs(d_alpha - (-float(levi_form_H(f, t1, t2)))) < 1e-5


def test_tangent_from_skew_round_trip():
    rng = Random(12)
    for _ in range(10):
        f, _ = random_frame_with_complement(N, rng)
        t = random_tangent(f, rng)
        psi = infinitesimal_rotation(t)
        assert psi.transpose() == -psi
        back = tangent_from_skew(f, psi)
        assert back.mat == t.mat


def test_quotient_q_projector_and_orientation():
    f = standard_frame(N)
    pl = quotient_q(f)
    proj = [[1 if i == j and i < 2 else 0 for j in range(N + 2)]
            for i in range(N + 2)]
    assert pl.projector == Matrix(proj)
    assert pl.orientation[0, 1] == 1 and pl.orientation[1, 0] == -1
    swapped = quotient_q(Frame2(f.mat @ Matrix([[0, 1], [1, 0]])))
    assert swapped.projector == pl.projector
    assert swapped.orientation == -pl.orientation


def test_quotient_constant_on_center_orbits_and_equivariant():
    rng = Random(13)
    for _ in range(15):
        f, _ = random_frame_with_complement(N, rng)
        pl = quotient_q(f)
        for _ in range(3):
            assert quotient_q(center_rotate(f, circle_point(rng))) == pl
        a = rotation(rng, 2)
        b = rotation(rng, N + 2)
        assert quotient_q(ksharp_act(a, b, f)) == plane_act(b, pl)


def test_oriented_plane_validation():
    f = standard_frame(N)
    pl = quotient_q(f)
    OrientedPlane(pl.orientation)
    with pytest.raises(ValueError):
        OrientedPlane(identity(N + 2))  # not skew
    with pytest.raises(ValueError):
        OrientedPlane(pl.orientation.scaled(0))  # o^3 = -o, but rank 0


def test_oriented_plane_refuses_two_orthogonal_planes():
    # the sum of the unit 2-vectors of the planes (e1, e2) and (e3, e4) is
    # skew with o^3 = -o, but it has rank 4 and tr(o^2) = -4
    o = quotient_q(standard_frame(N)).orientation
    swap = Matrix([[int(j == (i + 2) % (N + 2)) for j in range(N + 2)]
                   for i in range(N + 2)])
    both = o + swap @ o @ swap.transpose()
    assert both.transpose() == -both and both @ both @ both == -both
    assert rank(both) == 4
    with pytest.raises(ValueError):
        OrientedPlane(both)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 5), st.integers(0, 2 ** 32 - 1))
def test_oriented_plane_is_its_unit_two_vector(n, seed):
    f, _ = random_frame_with_complement(n, Random(seed))
    pl = quotient_q(f)
    assert pl.projector == f.mat @ f.mat.transpose()
    with pytest.raises(ValueError):
        OrientedPlane(pl.orientation.scaled(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 2 ** 32 - 1))
def test_matrix_identities_match_tuple_oracle(n, seed):
    """Every sampled object and value equals the tuple formulas', drawn from
    two copies of one seeded generator that end in the same state."""
    rng, ref_rng = Random(seed), Random(seed)
    f, comp = random_frame_with_complement(n, rng)
    v1, v2, rcomp = ref.random_frame_with_complement(n, ref_rng)
    assert f.mat == cols(v1, v2) and comp == cols(*rcomp)
    reeb = reeb_field(f)
    assert reeb.mat == cols(*ref.reeb_field(v1, v2))
    assert contact_alpha(reeb) == ref.contact_alpha(v2, ref.reeb_field(v1, v2)[0])
    t = random_tangent(f, rng)
    rt = ref.random_tangent(v1, v2, ref_rng)
    assert t.mat == cols(*rt)
    assert contact_alpha(t) == ref.contact_alpha(v2, rt[0])
    assert infinitesimal_rotation(t) == Matrix(ref.infinitesimal_rotation(v1, v2, rt))
    t1 = random_contact_tangent(f, comp, rng)
    t2 = random_contact_tangent(f, comp, rng)
    r1 = ref.random_contact_tangent(rcomp, ref_rng)
    r2 = ref.random_contact_tangent(rcomp, ref_rng)
    assert t1.mat == cols(*r1) and t2.mat == cols(*r2)
    assert contact_alpha(t1) == ref.contact_alpha(v2, r1[0]) == 0
    assert levi_form_H(f, t1, t2) == ref.levi_form_H(r1, r2)
    rw = (r1[1], tuple(-x for x in r1[0]))
    assert levi_witness(t1).mat == cols(*rw)
    assert levi_form_H(f, t1, levi_witness(t1)) == ref.levi_form_H(r1, rw)
    assert tangent_coordinates(t1, comp) == Matrix(ref.tangent_coordinates(r1, rcomp))
    assert infinitesimal_rotation(t2) == Matrix(ref.infinitesimal_rotation(v1, v2, r2))
    assert quotient_q(f).orientation == Matrix(ref.quotient_q(v1, v2))
    assert rng.random() == ref_rng.random()
