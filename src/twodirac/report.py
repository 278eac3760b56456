"""Verification suites and machine-readable run reports.

Each suite re-checks one module's invariants on seeded data; ``run_check``
turns its failures, or the exception it raised, into a CheckReport, and a
RunManifest aggregates them.  Reports are pure functions of
(check_name, n, samples, seed, mode): all randomness flows through
``random.Random`` seeded with strings derived from those inputs, so repeated
runs are byte-identical apart from elapsed_ms.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from . import __version__
from .clifford import build_gamma_rep
from .flat import PolySpinorField, apply_flat_2dirac, linear_power_field, symbol_cross_check
from .graded import (GRADES, bracket, closure_flags, grade_basis, grade_project,
                     heisenberg_gram, is_levi_member, is_parabolic_member,
                     levi_bracket, random_element, standard_neg1_basis)
from .linalg import (Matrix, block, det, hstack, identity, inverse, rank, submatrix,
                     vstack, zeros)
from .sampling import circle_point, deterministic_circle_points, rotation
from .scalars import CIRCLE_MINUS_ONE, CIRCLE_ONE, CirclePoint
from .spin import (RationalRotation, SpinCElement, SpinElement, gamma_c_mat,
                   hc_forward, hc_inverse, hsharp_forward, hsharp_inverse,
                   iota_embed, is_in_spin_subgroup, is_in_u1_subgroup,
                   random_phase_triple, random_spin, random_spinc, rho_n,
                   rho_n_c, so2_block, spin_rotation_generator, varsigma_n)
from .stiefel import (center_rotate, contact_alpha, frame_to_isotropic,
                      in_contact_distribution, is_isotropic,
                      isotropic_to_frame, ksharp_act, levi_form_H,
                      levi_witness, plane_act, quotient_q,
                      random_contact_tangent, random_frame_with_complement,
                      random_tangent, reeb_field, tangent_coordinates)
from .symbols import (MODES, Covector, ellipticity_scan, exactness_report,
                      random_covector, sigma1, spinor_dim, symbol_matrices,
                      weight_table)

Failure = Dict[str, str]


class CheckReport(NamedTuple):
    check_name: str
    n: int
    samples: int
    seed: int
    mode: str
    passed: bool
    failures: Tuple[Failure, ...]
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {"check_name": self.check_name, "n": self.n,
                "samples": self.samples, "seed": self.seed, "mode": self.mode,
                "passed": self.passed, "failures": list(self.failures),
                "elapsed_ms": self.elapsed_ms}


class RunManifest(NamedTuple):
    tool_version: str
    checks: Tuple[CheckReport, ...]
    overall_pass: bool

    def to_dict(self) -> dict:
        return {"tool_version": self.tool_version,
                "overall_pass": self.overall_pass,
                "checks": [c.to_dict() for c in self.checks]}


def _fail(inp, expected, got) -> Failure:
    return {"input": str(inp), "expected": str(expected), "got": str(got)}


def _rng(seed: int, name: str, n: int) -> Random:
    return Random(f"{seed}:{name}:{n}")


# -- suite bodies ---------------------------------------------------------------
# Each returns a list of failure records; empty means the suite passed.

def _check_grading(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "grading", n)
    bases = {i: grade_basis(n, i) for i in GRADES}
    # the stacked products certify each unflagged grade pair: its brackets
    # stay in grade i + j, so none is formed
    for i, j in sorted(closure_flags(n, bases)):
        fails.append(_fail(f"[grade {i} basis, grade {j} basis]",
                           f"products only in grade {i + j}", "off-grade entries"))
    for idx in range(samples):
        e = random_element(n, rng)
        total = zeros(n + 4, n + 4)
        for i in GRADES:
            p = grade_project(e, i)
            if grade_project(p, i) != p:
                fails.append(_fail(f"sample {idx} grade {i}",
                                   "idempotent projection", "not idempotent"))
            total = total + p.mat
        if total != e.mat:
            fails.append(_fail(f"sample {idx}", "projections sum to identity",
                               "sum differs"))
    for idx in range(min(samples, 100)):
        a, b, c = (random_element(n, rng) for _ in range(3))
        jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
               + bracket(c, bracket(a, b)))
        if not jac.is_zero():
            fails.append(_fail(f"jacobi sample {idx}", "0", "nonzero"))
    # grade-0 action on grade -1 is X -> B X - X A.  Block (a, b) of the
    # first stacked product is E0_a Em_b and block (b, a) of the second is
    # Em_b E0_a, so the X block of every bracket [E0_a, Em_b] is read off
    # two products; the closure has certified that the bracket lies in
    # grade -1, or flagged the pair above, and it lies in so(h) as every
    # bracket of GradedElements does.  B_a X_b and X_b A_a are blocks of two
    # more stacked products, of the B, X and A blocks alone
    k = n + 4
    g0, gm = bases[0], bases[-1]
    zero_minus = vstack(*(e.mat for e in g0)) @ hstack(*(e.mat for e in gm))
    minus_zero = vstack(*(e.mat for e in gm)) @ hstack(*(e.mat for e in g0))
    b_x = vstack(*(e.B for e in g0)) @ hstack(*(e.X for e in gm))
    x_a = vstack(*(e.X for e in gm)) @ hstack(*(e.A for e in g0))
    for a in range(len(g0)):
        for b in range(len(gm)):
            x = (submatrix(zero_minus, a * k + 2, a * k + n + 2, b * k, b * k + 2)
                 - submatrix(minus_zero, b * k + 2, b * k + n + 2, a * k, a * k + 2))
            if x != (submatrix(b_x, a * n, a * n + n, 2 * b, 2 * b + 2)
                     - submatrix(x_a, b * n, b * n + n, 2 * a, 2 * a + 2)):
                fails.append(_fail("grade-0 action on grade -1",
                                   "B X - X A", "differs"))
    # group-level filtration and grading stabilizers
    eye = identity(n + 4)
    if not (is_parabolic_member(eye, n) and is_levi_member(eye, n)):
        fails.append(_fail("identity", "parabolic and levi member", "rejected"))
    cmat = Matrix([[2, 1], [1, 1]])
    blockdiag = block([[cmat, zeros(2, n), zeros(2, 2)],
                       [zeros(n, 2), rotation(rng, n), zeros(n, 2)],
                       [zeros(2, 2), zeros(2, n), inverse(cmat).transpose()]])
    if not (is_parabolic_member(blockdiag, n) and is_levi_member(blockdiag, n)):
        fails.append(_fail("block diagonal element", "parabolic and levi",
                           "rejected"))
    nassembled = bases[1][0].mat
    unipotent = (identity(n + 4) + nassembled
                 + (nassembled @ nassembled).scaled(Fraction(1, 2)))
    if not is_parabolic_member(unipotent, n):
        fails.append(_fail("unipotent element", "parabolic member", "rejected"))
    if is_levi_member(unipotent, n):
        fails.append(_fail("unipotent element", "not a levi member", "accepted"))
    return fails


def _check_heisenberg(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "heisenberg", n)
    gram = heisenberg_gram(n)
    if gram.transpose() != -gram:
        fails.append(_fail(f"gram n={n}", "skew-symmetric", "not skew"))
    d = det(gram)
    if d == 0:
        fails.append(_fail(f"gram n={n}", "nonzero determinant", "0"))
    if rank(gram) != 2 * n:
        fails.append(_fail(f"gram n={n}", f"rank {2 * n}", rank(gram)))
    basis = standard_neg1_basis(n)
    if all(levi_bracket(bi, bj).is_zero() for bi in basis for bj in basis):
        fails.append(_fail("span of levi brackets", "all of grade -2", "zero"))
    for idx in range(samples):
        x1 = Matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(n)])
        x2 = Matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(n)])
        x3 = Matrix([[rng.randint(-9, 9) for _ in range(2)] for _ in range(n)])
        if levi_bracket(x1, x2) != -levi_bracket(x2, x1):
            fails.append(_fail(f"sample {idx}", "skew bracket", "not skew"))
        if levi_bracket(x1 + x3, x2) != levi_bracket(x1, x2) + levi_bracket(x3, x2):
            fails.append(_fail(f"sample {idx}", "bilinear bracket", "not bilinear"))
        if levi_bracket(x1, x1).is_zero() is False:
            fails.append(_fail(f"sample {idx}", "[x, x] = 0", "nonzero"))
    return fails


def _check_spin(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "spin", n)
    rep = build_gamma_rep(n)
    minus = SpinElement.minus_one(rep)
    if minus.spinor_mat != identity(rep.s).scaled(-1):
        fails.append(_fail("central element", "-Id on spinors", "differs"))
    for idx in range(samples):
        a = random_spin(rep, rng)
        b = random_spin(rep, rng)
        rab, ra, neg_a = rho_n(a * b), rho_n(a), -a
        if rab.mat != ra.mat @ rho_n(b).mat:
            fails.append(_fail(f"pair {idx}", "rho(ab) = rho(a) rho(b)", "differs"))
        if rho_n(neg_a).mat != ra.mat:
            fails.append(_fail(f"sample {idx}", "rho(-a) = rho(a)", "differs"))
        if a == neg_a:
            fails.append(_fail(f"sample {idx}", "a != -a on spinors", "equal"))
    for k, p in enumerate(deterministic_circle_points(20)):
        gen = spin_rotation_generator(rep, p)
        if rho_n(gen).mat != so2_block(p.square(), n - 2):
            fails.append(_fail(f"circle point {k}", "rotation by doubled angle",
                               "differs"))
    return fails


def _check_spinc(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "spinc", n)
    rep = build_gamma_rep(n)
    one = SpinElement.identity(rep)
    # the actions are compared on one spinor column, O(s^2) per sample
    psi = submatrix(identity(rep.s), 0, rep.s, 0, 1)
    # the defining class relation
    x = random_spinc(rep, rng)
    if x != x.negated_representative():
        fails.append(_fail("class relation", "<p, a> = <-p, -a>", "unequal"))
    if SpinCElement(CIRCLE_ONE, one) == SpinCElement(CIRCLE_MINUS_ONE, one):
        fails.append(_fail("class relation", "<1, 1> != <-1, 1>", "equal"))
    if varsigma_n(SpinCElement(CirclePoint(0, 1), one)) != CIRCLE_MINUS_ONE:
        fails.append(_fail("varsigma <i, 1>", "-1", "differs"))
    for idx in range(samples):
        x = random_spinc(rep, rng)
        y = random_spinc(rep, rng)
        neg = x.negated_representative()
        rx = rho_n_c(x)
        if rx.mat != rho_n_c(neg).mat:
            fails.append(_fail(f"sample {idx}", "rho^c well defined", "differs"))
        if varsigma_n(x) != varsigma_n(neg):
            fails.append(_fail(f"sample {idx}", "varsigma well defined", "differs"))
        if gamma_c_mat(x) @ psi != gamma_c_mat(neg) @ psi:
            fails.append(_fail(f"sample {idx}", "gamma^c well defined", "differs"))
        xy = x * y
        if rho_n_c(xy).mat != rx.mat @ rho_n_c(y).mat:
            fails.append(_fail(f"pair {idx}", "rho^c homomorphism", "differs"))
        if varsigma_n(xy) != varsigma_n(x) * varsigma_n(y):
            fails.append(_fail(f"pair {idx}", "varsigma homomorphism", "differs"))
        if gamma_c_mat(xy) @ psi != gamma_c_mat(x) @ (gamma_c_mat(y) @ psi):
            fails.append(_fail(f"pair {idx}", "gamma^c action", "differs"))
        # sequence exactness at the group level
        in_u1 = is_in_u1_subgroup(x)
        if (rx.mat == identity(n)) != in_u1:
            fails.append(_fail(f"sample {idx}", "ker rho^c = U(1)", "mismatch"))
        if (varsigma_n(x) == CIRCLE_ONE) != is_in_spin_subgroup(x):
            fails.append(_fail(f"sample {idx}", "ker varsigma = Spin", "mismatch"))
    u1_elt = SpinCElement(circle_point(rng), one)
    if rho_n_c(u1_elt).mat != identity(n) or not is_in_u1_subgroup(u1_elt):
        fails.append(_fail("central circle element", "in ker rho^c", "not"))
    spin_elt = SpinCElement(CIRCLE_MINUS_ONE, random_spin(rep, rng))
    if varsigma_n(spin_elt) != CIRCLE_ONE or not is_in_spin_subgroup(spin_elt):
        fails.append(_fail("spin subgroup element", "in ker varsigma", "not"))
    # stabilizer isomorphisms: round trips and homomorphism property
    for idx in range(samples):
        tr = random_phase_triple(rep, rng, constrained=True)
        so2, a = hsharp_forward(tr)
        if hsharp_inverse(so2, a) != tr:
            fails.append(_fail(f"hsharp class {idx}", "round trip", "differs"))
        tr2 = random_phase_triple(rep, rng, constrained=True)
        p12, a12 = hsharp_forward(tr * tr2)
        p2, a2 = hsharp_forward(tr2)
        if p12 != so2 * p2 or a12 != a * a2:
            fails.append(_fail(f"hsharp pair {idx}", "homomorphism", "differs"))
        tu = random_phase_triple(rep, rng, constrained=False)
        so2u, xu = hc_forward(tu)
        if hc_inverse(so2u, xu) != tu:
            fails.append(_fail(f"hc class {idx}", "round trip", "differs"))
        tu2 = random_phase_triple(rep, rng, constrained=False)
        q12, y12 = hc_forward(tu * tu2)
        q2, y2 = hc_forward(tu2)
        if q12 != so2u * q2 or y12 != xu * y2:
            fails.append(_fail(f"hc pair {idx}", "homomorphism", "differs"))
    return fails


def _check_embedding(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "embedding", n)
    rep = build_gamma_rep(n)
    big = build_gamma_rep(n + 2)
    one = SpinElement.identity(rep)
    for idx in range(samples):
        x = random_spinc(rep, rng)
        emb = iota_embed(x, big)
        r = rho_n(emb).mat
        if not (submatrix(r, 0, 2, 2, n + 2).is_zero()
                and submatrix(r, 2, n + 2, 0, 2).is_zero()):
            fails.append(_fail(f"sample {idx}", "block diagonal rotation",
                               "off-diagonal blocks"))
            continue
        ph2 = x.phase.square()
        if (r[0, 0], r[1, 0], r[0, 1], r[1, 1]) != (ph2.c, ph2.d, -ph2.d, ph2.c):
            fails.append(_fail(f"sample {idx}", "upper block = doubled phase",
                               "differs"))
        if submatrix(r, 2, n + 2, 2, n + 2) != rho_n_c(x).mat:
            fails.append(_fail(f"sample {idx}", "lower block = rho^c", "differs"))
        if iota_embed(x.negated_representative(), big) != emb:
            fails.append(_fail(f"sample {idx}", "iota well defined", "differs"))
        y = random_spinc(rep, rng)
        emb_y = iota_embed(y, big)
        if iota_embed(x * y, big) != emb * emb_y:
            fails.append(_fail(f"pair {idx}", "iota homomorphism", "differs"))
        if x != y and emb_y == emb:
            fails.append(_fail(f"pair {idx}", "iota injective", "collision"))
    kernel = (SpinCElement(CIRCLE_ONE, one), SpinCElement(CIRCLE_MINUS_ONE, one))
    for x in kernel:
        if rho_n(iota_embed(x, big)).mat != identity(n + 2):
            fails.append(_fail("kernel class", "identity rotation", "differs"))
    if kernel[0] == kernel[1]:
        fails.append(_fail("kernel", "two distinct classes", "collapsed"))
    if not iota_embed(kernel[1], big).is_central():
        fails.append(_fail("kernel image", "central in the big group", "not"))
    return fails


def _check_contact(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "contact", n)
    for idx in range(samples):
        f, comp = random_frame_with_complement(n, rng)
        reeb = reeb_field(f)
        if contact_alpha(reeb) != 1:
            fails.append(_fail(f"frame {idx}", "alpha(reeb) = 1",
                               contact_alpha(reeb)))
        if in_contact_distribution(reeb):
            fails.append(_fail(f"frame {idx}", "reeb transversal", "in kernel"))
        u = frame_to_isotropic(f)
        if not is_isotropic(u):
            fails.append(_fail(f"frame {idx}", "isotropic plane", "not isotropic"))
        if isotropic_to_frame(u) != f:
            fails.append(_fail(f"frame {idx}", "isotropic round trip", "differs"))
        t = random_tangent(f, rng)
        if (contact_alpha(t) == 0) != in_contact_distribution(t):
            fails.append(_fail(f"frame {idx}", "ker alpha = contact distribution",
                               "mismatch"))
        t1 = random_contact_tangent(f, comp, rng)
        t2 = random_contact_tangent(f, comp, rng)
        if contact_alpha(t1) != 0:
            fails.append(_fail(f"frame {idx}", "contact tangent in ker alpha",
                               contact_alpha(t1)))
        pairing = levi_form_H(f, t1, levi_witness(t1))
        if pairing <= 0:
            fails.append(_fail(f"frame {idx}", "positive witness pairing", pairing))
        x1 = tangent_coordinates(t1, comp)
        x2 = tangent_coordinates(t2, comp)
        if levi_form_H(f, t1, t2) != levi_bracket(x1, x2)[0, 1]:
            fails.append(_fail(f"frame {idx}",
                               "levi form matches heisenberg bracket", "differs"))
        plane = quotient_q(f)
        for p in (circle_point(rng), circle_point(rng)):
            if quotient_q(center_rotate(f, p)) != plane:
                fails.append(_fail(f"frame {idx}", "plane constant on orbit",
                                   "moved"))
        a = RationalRotation(rotation(rng, 2))
        b = RationalRotation(rotation(rng, n + 2))
        if quotient_q(ksharp_act(a, b, f)) != plane_act(b, plane):
            fails.append(_fail(f"frame {idx}", "quotient equivariance", "differs"))
    return fails


def _check_symbols(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "symbols", n)
    rep = build_gamma_rep(n)
    scan = ellipticity_scan(n, samples, seed, mode)
    if scan.checked < samples:
        fails.append(_fail(f"scan n={n}", f">= {samples} covectors", scan.checked))
    for bad in scan.failures:
        if bad.report is None:
            fails.append(_fail(f"covector {bad.covector}", "complex property", bad.error))
            continue
        fails.append(_fail(f"covector {bad.covector}",
                           f"ranks ({rep.s}, {rep.s}, {rep.s}) and exactness",
                           f"ranks ({bad.report.rank1}, {bad.report.rank2}, "
                           f"{bad.report.rank3})"))
    # homogeneity of each symbol in its order from the weight table
    orders = weight_table(n).orders
    for idx in range(min(samples, 25)):
        x = random_covector(n, rng)
        t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pairs = zip(symbol_matrices(rep, x.scaled(t)), symbol_matrices(rep, x), orders)
        for k, (at_tx, at_x, order) in enumerate(pairs, 1):
            if at_tx != at_x.scaled(t ** order):
                fails.append(_fail(f"sample {idx}", f"sigma{k} order {order}",
                                   "violated"))
    # covariance under the spin^c factor
    for idx in range(min(samples, 5)):
        g = random_spinc(rep, rng)
        x = random_covector(n, rng)
        r = rho_n_c(g).mat
        moved = Covector(r.apply(x.x1), r.apply(x.x2))
        gc = gamma_c_mat(g)
        stacked = block([[gc, gc.scaled(0)], [gc.scaled(0), gc]])
        if sigma1(rep, moved) @ gc != stacked @ sigma1(rep, x):
            fails.append(_fail(f"sample {idx}", "sigma1 equivariance", "differs"))
    # ellipticity is a claim about nonzero covectors only
    try:
        exactness_report(rep, Covector((0,) * n, (0,) * n), mode)
        fails.append(_fail("zero covector", "rejected", "accepted"))
    except ValueError:
        pass
    return fails


def _check_flat(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    rng = _rng(seed, "flat-dirac", n)
    rep = build_gamma_rep(n)
    psi0 = tuple(identity(rep.s).col(0))
    p1, p2 = apply_flat_2dirac(rep, PolySpinorField.constant(n, psi0))
    if not (p1.is_zero() and p2.is_zero()):
        fails.append(_fail("constant field", "killed by the operator", "nonzero"))
    for idx in range(samples):
        xi = random_covector(n, rng)
        k = rng.randint(1, 5)
        psi = tuple(rng.randint(-4, 4) for _ in range(rep.s))
        if not any(psi):
            psi = psi0
        if not symbol_cross_check(rep, xi, k, psi):
            fails.append(_fail(f"(xi={xi}, k={k})", "operator matches symbol",
                               "differs"))
    for idx in range(min(samples, 25)):
        f = linear_power_field(rep, random_covector(n, rng), rng.randint(1, 3), psi0)
        g = linear_power_field(rep, random_covector(n, rng), rng.randint(1, 3), psi0)
        a = Fraction(rng.randint(-5, 5))
        lhs = apply_flat_2dirac(rep, f.scaled(a) + g)
        rf, rg = apply_flat_2dirac(rep, f), apply_flat_2dirac(rep, g)
        if any(out != pf.scaled(a) + pg for out, pf, pg in zip(lhs, rf, rg)):
            fails.append(_fail(f"sample {idx}", "linearity", "violated"))
        # scalar-coefficient degree-1 fields are never in the kernel
        coeffs = [rng.randint(-4, 4) for _ in range(2 * n)]
        if any(coeffs):
            lin = Matrix((c,) for c in coeffs) @ Matrix([psi0])
            img = apply_flat_2dirac(rep, PolySpinorField(n, identity(2 * n).rows, lin))
            if all(p.is_zero() for p in img):
                fails.append(_fail(f"sample {idx}", "degree-1 kernel is trivial",
                                   "nonzero kernel element"))
    return fails


def _check_index(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    wt = weight_table(n)
    d = wt.fiber_dims
    if wt.index != 0:
        fails.append(_fail(f"n={n}", "index 0", wt.index))
    if d[0] != d[3]:
        fails.append(_fail(f"n={n}", "dim V0 = dim V3", d))
    if d[1] != d[2]:
        fails.append(_fail(f"n={n}", "dim V1 = dim V2", d))
    return fails


def _check_dims(n: int, samples: int, seed: int, mode: str) -> List[Failure]:
    fails: List[Failure] = []
    wt = weight_table(n)
    half = Fraction(1, 2)
    want = ((half * (n - 1), half * (n - 1)), (half * (n + 1), half * (n - 1)),
            (half * (n + 3), half * (n + 1)), (half * (n + 3), half * (n + 3)))
    if wt.lam != want:
        fails.append(_fail(f"n={n}", want, wt.lam))
    gaps = tuple((b[0] - a[0], b[1] - a[1]) for a, b in zip(wt.lam, wt.lam[1:]))
    if gaps != ((1, 0), (1, 1), (0, 1)):
        fails.append(_fail(f"n={n}", "weight gaps (1,0), (1,1), (0,1)", gaps))
    if wt.orders != (1, 2, 1):
        fails.append(_fail(f"n={n}", "orders (1, 2, 1)", wt.orders))
    s = spinor_dim(n)
    d = wt.fiber_dims
    if d != (s, 2 * s, 2 * s, s):
        fails.append(_fail(f"n={n}", f"dims ({s}, {2*s}, {2*s}, {s})", d))
    return fails


SuiteFn = Callable[[int, int, int, str], List[Failure]]

# suite -> (body, minimum n); clifford-level suites accept n >= 2
SUITES: Dict[str, Tuple[SuiteFn, int]] = {
    "grading": (_check_grading, 3),
    "heisenberg": (_check_heisenberg, 3),
    "spin": (_check_spin, 2),
    "spinc": (_check_spinc, 2),
    "embedding": (_check_embedding, 2),
    "contact": (_check_contact, 3),
    "symbols": (_check_symbols, 3),
    "flat-dirac": (_check_flat, 3),
    "index": (_check_index, 3),
    "dims": (_check_dims, 3),
}

SUITE_ORDER = tuple(SUITES)


def _validate(name: str, n: int, samples: int, mode: str) -> None:
    """Refuse a run that no suite body should see: n below the suite's
    minimum, fewer than one sample, or an unknown mode."""
    min_n = SUITES[name][1]
    if n < min_n:
        raise ValueError(f"suite {name} needs n >= {min_n}, got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")


def run_check(name: str, n: int, samples: int, seed: int, mode: str) -> CheckReport:
    _validate(name, n, samples, mode)
    fn = SUITES[name][0]
    start = time.perf_counter()
    try:
        failures = tuple(fn(n, samples, seed, mode))
    except Exception as exc:  # a crash is a failed check, not a traceback
        failures = (_fail(f"{name} n={n}", "no exception",
                          f"{type(exc).__name__}: {exc}"),)
    elapsed = max(0, int(round((time.perf_counter() - start) * 1000)))
    return CheckReport(check_name=name, n=n, samples=samples, seed=seed,
                       mode=mode, passed=not failures, failures=failures,
                       elapsed_ms=elapsed)


def run_suite(suite: str, ns: Sequence[int], samples: int, seed: int,
              mode: str = "exact") -> RunManifest:
    """Run one named suite (or all of them) over a list of n values.

    Every (suite, n) pair, the sample count and the mode are validated
    before any check runs.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if not ns:
        raise ValueError("empty n range")
    names = SUITE_ORDER if suite == "all" else (suite,)
    for name in names:
        for n in ns:
            _validate(name, n, samples, mode)
    checks = [run_check(name, n, samples, seed, mode)
              for name in names for n in ns]
    return RunManifest(tool_version=__version__, checks=tuple(checks),
                       overall_pass=all(c.passed for c in checks))


# -- serialization ----------------------------------------------------------------

def manifest_to_json(m: RunManifest) -> str:
    import json
    return json.dumps(m.to_dict(), indent=2) + "\n"


def manifest_to_csv(m: RunManifest) -> str:
    import csv
    import io
    import json
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check_name", "n", "samples", "seed", "mode", "passed",
                     "failures", "elapsed_ms"])
    for c in m.checks:
        writer.writerow([c.check_name, c.n, c.samples, c.seed, c.mode,
                         c.passed, json.dumps(list(c.failures)), c.elapsed_ms])
    return buf.getvalue()


def _dims_table(ns: Sequence[int]) -> List[str]:
    lines = ["  n   s   fiber dims        orders   weights"]
    for n in ns:
        wt = weight_table(n)
        lam = " ".join(f"[{a},{b}]" for a, b in wt.lam)
        d = wt.fiber_dims
        dims = ",".join(map(str, d))
        lines.append(f"  {n:<3} {d[0]:<3} ({dims})".ljust(28)
                     + f"  {wt.orders}  {lam}")
    return lines


def manifest_to_text(m: RunManifest, color: bool = False) -> str:
    green, red, reset = ("\x1b[32m", "\x1b[31m", "\x1b[0m") if color else ("", "", "")
    lines = [f"twodirac {m.tool_version}"]
    dims_ns = []
    for c in m.checks:
        tag = f"{green}PASS{reset}" if c.passed else f"{red}FAIL{reset}"
        lines.append(f"[{tag}] {c.check_name:<10} n={c.n} samples={c.samples} "
                     f"seed={c.seed} mode={c.mode} ({c.elapsed_ms} ms)")
        for f in c.failures:
            lines.append(f"    {f['input']}: expected {f['expected']}, "
                         f"got {f['got']}")
        if c.check_name == "dims" and c.passed:
            dims_ns.append(c.n)
    if dims_ns:
        lines.extend(_dims_table(dims_ns))
    status = f"{green}PASS{reset}" if m.overall_pass else f"{red}FAIL{reset}"
    lines.append(f"overall: {status}")
    return "\n".join(lines) + "\n"


def emit_report(m: RunManifest, fmt: str, stream) -> None:
    """Write the manifest to an open text stream in the requested format."""
    if fmt == "json":
        stream.write(manifest_to_json(m))
    elif fmt == "csv":
        stream.write(manifest_to_csv(m))
    elif fmt == "text":
        import os
        color = (stream.isatty() and not os.environ.get("NO_COLOR")
                 if hasattr(stream, "isatty") else False)
        stream.write(manifest_to_text(m, color=color))
    else:
        raise ValueError(f"unknown format {fmt!r}")
