"""Every verification suite can fail: one injected fault per suite.

Each case patches one fault into the namespace its suite looks the name up
in and asserts that the suite, which passes unpatched, then reports FAIL
through its own checks rather than through a crash record.
``build_gamma_rep`` is never patched: its cache would hide the patch.  The
one premise it certifies, the Clifford relations, gets its own fault: the
sign convention is flipped with the cache cleared around the patch.
The failure records each fault produces are pinned by digest, so a change
in how entries render shows as a changed report, not as a silent one.
The spin suite also has one fault per record (``SPIN_RECORD_FAULTS``), each
failing that record alone.
"""

import ast
import hashlib
import inspect
import json

import pytest

from twodirac import clifford, flat, graded, report, spin, symbols
from twodirac.clifford import build_gamma_rep
from twodirac.linalg import Matrix, block, identity, submatrix, zeros
from twodirac.report import SUITE_ORDER, run_check
from twodirac.scalars import CIRCLE_ONE
from twodirac.spin import SpinCElement, SpinElement

import reference_graded as layout


def _flip_first_block(m: Matrix, s: int) -> Matrix:
    return Matrix(tuple(-x if i < s and j < s else x for j, x in enumerate(row))
                  for i, row in enumerate(m.rows))


def _symmetric_bracket(x1: Matrix, x2: Matrix) -> Matrix:
    return x1.transpose() @ x2 + x2.transpose() @ x1


def _phase_dropped(orig):
    return lambda x, big: orig(SpinCElement(CIRCLE_ONE, x.spin), big)


def _e1_weight_shifted(orig):
    """weight_table with the first weight of E1 raised by 1."""
    def shifted(n):
        wt = orig(n)
        a, b = wt.lam[1]
        return wt._replace(lam=(wt.lam[0], (a + 1, b)) + wt.lam[2:])
    return shifted


# suite -> (module, name, fault built from the original function)
FAULTS = {
    "grading": (report, "grade_project", lambda orig: lambda e, k: e),
    "heisenberg": (report, "levi_bracket", lambda orig: _symmetric_bracket),
    "spin": (spin, "givens",
             lambda orig: lambda k, i, j, p: orig(k, i, j, p).scaled(2)),
    "spinc": (report, "varsigma_n", lambda orig: lambda x: x.phase),
    "embedding": (report, "iota_embed", _phase_dropped),
    "contact": (report, "contact_alpha", lambda orig: lambda t: -orig(t)),
    "symbols": (symbols, "_second",
                lambda orig: lambda rep, x, m2: _flip_first_block(orig(rep, x, m2), rep.s)),
    "flat-dirac": (flat, "sigma1", lambda orig: lambda rep, x: -orig(rep, x)),
    "index": (report, "weight_table", _e1_weight_shifted),
    "dims": (symbols, "spinor_dim", lambda orig: lambda n: orig(n) + 1),
}


# suite -> (record count, SHA-256 of the records as JSON with sorted keys)
# under its fault at n = 3, samples 2, seed 0.  The grading fault makes each
# projection the identity; the closure projects nothing (it reads the
# grades of its stacked products' entries), so its records come from the
# two "projections sum" checks alone.
FAULT_RECORDS = {
    "grading": (2, "a2393e4ccbe5a079940331091fcb64273fca63489d2f5f9c4bb54ef78178d16f"),
    "heisenberg": (4, "e05b35f7a748b0da5d2618fae49168a5c19e601f1c824f336d9457de64498680"),
    "spin": (20, "c3f9f8399320704713376b79ded099695ef7dbd759a882204f7cf25f7ea3008e"),
    "spinc": (4, "9da65a8fad7a7ab8fd5d0ae8e114f9d2fe5fe9b73a53932b0453deb7ff49c5a0"),
    "embedding": (3, "52780c3b199a0d7e4d790db4917a3601545713b56f701ccdd2e2d22a4ea2581c"),
    "contact": (2, "d8edb5674eb801b9cf5f85799935c4b713e4ce983ff0a0cb34ff8482c9c78508"),
    "symbols": (23, "632c78a2a73f5b5f8883bbd0a08d20055464690ba8e4f3ca42cf75013c908fcf"),
    "flat-dirac": (2, "2f880a637b6669eebe4561baf7640536ccc9284401012fb7aadacee79c0961dd"),
    "index": (2, "fc39b3caab897fb4f4116eaac08d4fbd1fce453af5934cd653cae91fffd609a7"),
    "dims": (1, "84f2a4af5437a53b1267388078fd54b526801cc95113fbaf74a01729474336b8"),
}


def test_every_suite_has_a_fault():
    assert sorted(FAULTS) == sorted(SUITE_ORDER)


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_suite_reports_fail_under_its_fault(suite, monkeypatch):
    assert run_check(suite, 3, 2, 0, "exact").passed
    module, name, fault = FAULTS[suite]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    rpt = run_check(suite, 3, 2, 0, "exact")
    assert rpt.passed is False and rpt.failures
    assert all(f["expected"] != "no exception" for f in rpt.failures)


@pytest.mark.parametrize("suite", SUITE_ORDER)
def test_failure_records_render_as_pinned(suite, monkeypatch):
    module, name, fault = FAULTS[suite]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    records = list(run_check(suite, 3, 2, 0, "exact").failures)
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert (len(records), digest) == FAULT_RECORDS[suite]


def _times_e1_e2(a: SpinElement) -> SpinElement:
    n = a.rep.n
    return a * SpinElement(a.rep, ((1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2)))


# spin record (its "expected" field) -> (SpinElement attribute, fault built
# from the original); FAULTS["spin"] reaches the fifth record, the rotation
# by the doubled angle
SPIN_RECORD_FAULTS = {
    "-Id on spinors": ("minus_one",
                       lambda orig: classmethod(lambda cls, rep: cls(rep, ()))),
    "rho(ab) = rho(a) rho(b)": ("__mul__", lambda orig: lambda a, b: orig(b, a)),
    "rho(-a) = rho(a)": ("__neg__", lambda orig: _times_e1_e2),
    "a != -a on spinors": ("__neg__", lambda orig: lambda a: a),
}


def test_every_spin_record_has_a_fault():
    body = ast.parse(inspect.getsource(report._check_spin))
    records = {node.args[1].value for node in ast.walk(body)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail"}
    assert records == {*SPIN_RECORD_FAULTS, "rotation by doubled angle"}


@pytest.mark.parametrize("record", SPIN_RECORD_FAULTS)
def test_each_spin_record_fails_alone_under_its_fault(record, monkeypatch):
    assert run_check("spin", 3, 2, 0, "exact").passed
    name, fault = SPIN_RECORD_FAULTS[record]
    monkeypatch.setattr(SpinElement, name, fault(getattr(SpinElement, name)))
    failures = run_check("spin", 3, 2, 0, "exact").failures
    assert failures and {f["expected"] for f in failures} == {record}


def test_a_shifted_weight_fails_the_dims_suite(monkeypatch):
    # FAULTS["index"] must also fail the dims suite's table checks
    monkeypatch.setattr(report, "weight_table", _e1_weight_shifted(report.weight_table))
    rpt = run_check("dims", 3, 2, 0, "exact")
    assert rpt.passed is False and rpt.failures
    assert all(f["expected"] != "no exception" for f in rpt.failures)


def _gauged(s: int, t: int) -> Matrix:
    """D x I for D = [[1, t], [0, 1]]; t = -1 gives the inverse of t = 1."""
    eye = identity(s)
    return block([[eye, eye.scaled(t)], [zeros(s, s), eye]])


def test_a_consistent_gauge_fails_only_the_symbols_suite(monkeypatch):
    # (D x I) s2 with s3 (D x I)^-1 keeps s2 s1 = 0, s3 s2 = 0, the ranks,
    # the homogeneity and the spin^c covariance of s1, but not s3 = s1^dagger K
    second, third = symbols._second, symbols._third
    monkeypatch.setattr(symbols, "_second", lambda rep, x, m2:
                        _gauged(rep.s, 1) @ second(rep, x, m2))
    monkeypatch.setattr(symbols, "_third", lambda m1, m2:
                        third(m1, m2) @ _gauged(m1.nrows, -1))
    for n in (3, 4):
        for suite in SUITE_ORDER:
            rpt = run_check(suite, n, 5, 3, "exact")
            if suite != "symbols":
                assert rpt.passed, (suite, n)
                continue
            assert rpt.passed is False and rpt.failures
            assert all(f["expected"] != "no exception" for f in rpt.failures)


def _four_projection_pairs(n: int) -> set:
    """The grade pairs (i, j) for which the sweep that projects every basis
    bracket [e_i, e_j] onto each of the four grades k != i + j finds a
    nonzero component."""
    bases = {i: report.grade_basis(n, i) for i in report.GRADES}
    return {(i, j) for i in report.GRADES for j in report.GRADES
            if any(not report.grade_project(report.bracket(ei, ej), k).is_zero()
                   for ei in bases[i] for ej in bases[j]
                   for k in report.GRADES if k != i + j)}


def _closure_record(i: int, j: int) -> dict:
    return {"input": f"[grade {i} basis, grade {j} basis]",
            "expected": f"products only in grade {i + j}", "got": "off-grade entries"}


def _grade_one_leaks_into_grade_zero(orig):
    """grade_basis with the grade-0 basis element E_01 - E_sigma(1)sigma(0)
    added to the first grade-1 element N.  The sum still has N^3 = 0, so the
    suite's unipotent I + N + N^2/2 stays in the group; with any other
    grade-0 element it leaves the group and the suite raises."""
    def leaking(n, i):
        basis = orig(n, i)
        return [basis[0] + orig(n, 0)[1]] + basis[1:] if i == 1 else basis
    return leaking


@pytest.mark.parametrize("n", [3, 4])
def test_grading_closure_skips_only_what_no_projection_flags(n, monkeypatch):
    """Under a grade-1 basis element that leaks into grade 0, the closure
    records name every grade pair that the four-projection sweep flags, and
    no bracket of basis elements is formed."""
    monkeypatch.setattr(report, "grade_basis",
                        _grade_one_leaks_into_grade_zero(report.grade_basis))
    swept = _four_projection_pairs(n)
    calls = []
    orig = report.bracket
    monkeypatch.setattr(report, "bracket", lambda a, b: calls.append(1) or orig(a, b))
    samples = 1
    records = [f for f in report._check_grading(n, samples, 0, "exact")
               if f["input"].startswith("[grade ")]
    flagged = sorted(report.closure_flags(
        n, {i: report.grade_basis(n, i) for i in report.GRADES}))
    assert records == [_closure_record(i, j) for i, j in flagged]
    assert swept and swept <= set(flagged)
    # three double brackets per Jacobi sample and no others: the grade-0
    # action reads its brackets off two stacked products
    assert len(calls) == 6 * samples


# test_graded's LEAKS but (1, -1): the suite's unipotent I + N + N^2/2 is
# built from the first grade-1 element and would leave the group
@pytest.mark.parametrize("i, j", [(-2, 1), (-1, 0), (0, 1), (2, 0)])
def test_a_leaking_basis_fails_grading_through_the_closure_record(i, j, monkeypatch):
    """With the first grade-i basis element plus the first grade-j one, the
    grading suite fails with one closure record per grade pair that the
    dense grade test flags, and no crash record."""
    orig = report.grade_basis

    def leaking(n, g):
        basis = orig(n, g)
        return [basis[0] + orig(n, j)[0]] + basis[1:] if g == i else basis

    monkeypatch.setattr(report, "grade_basis", leaking)
    want = layout.closure_flags(3, {g: leaking(3, g) for g in report.GRADES})
    rpt = run_check("grading", 3, 2, 0, "exact")
    assert rpt.passed is False and (i, j) in want
    assert all(f["expected"] != "no exception" for f in rpt.failures)
    assert [f for f in rpt.failures if f["input"].startswith("[grade ")] == \
        [_closure_record(a, b) for a, b in sorted(want)]


def test_the_grade_0_action_check_can_fail(monkeypatch):
    """With B read transposed, B X - X A is formed with -B (B is skew), so
    the action read off the stacked products no longer matches it."""
    def b_transposed(e):
        return submatrix(e.mat, 2, e.n + 2, 2, e.n + 2).transpose()

    monkeypatch.setattr(graded.GradedElement, "B", property(b_transposed))
    rpt = run_check("grading", 3, 2, 0, "exact")
    assert [f["input"] for f in rpt.failures] == ["grade-0 action on grade -1"] * 12


def test_the_symbol_orders_come_from_the_weight_table(monkeypatch):
    def first_orders(orig):
        return lambda n: orig(n)._replace(orders=(1, 1, 1))

    monkeypatch.setattr(report, "weight_table", first_orders(report.weight_table))
    rpt = run_check("symbols", 3, 2, 0, "exact")
    assert rpt.failures
    assert {f["expected"] for f in rpt.failures} == {"sigma2 order 1"}


def test_symbols_refuses_a_scan_that_checked_too_few(monkeypatch):
    def vacuous(n, samples, seed, mode="exact"):
        return symbols.ScanReport(n, samples, seed, mode, checked=0, passed=True)

    monkeypatch.setattr(report, "ellipticity_scan", vacuous)
    rpt = run_check("symbols", 3, 2, 0, "exact")
    assert [f["expected"] for f in rpt.failures] == [">= 2 covectors"]


def test_gamma_build_refuses_the_wrong_clifford_sign(monkeypatch):
    build_gamma_rep.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(clifford, "CLIFFORD_SIGN", 1)
            for n in range(2, 9):
                with pytest.raises(AssertionError, match="fail Clifford relation"):
                    build_gamma_rep(n)
    finally:
        build_gamma_rep.cache_clear()
    # later callers see the unpatched sign and a cache of validated reps
    assert clifford.CLIFFORD_SIGN == -1
    for n in range(2, 9):
        rep = build_gamma_rep(n)
        clifford._validate(rep)
        assert build_gamma_rep(n) is rep
