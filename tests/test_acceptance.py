"""Acceptance suite: one test per headline criterion, exact arithmetic.

Criteria 1-8 assert that the CLI's suites (``twodirac.report``) pass at each
criterion's n range, sample count and seed, so each check is written once.
Run ``pytest tests/test_acceptance.py -v -s`` for one line per criterion.
"""

import hashlib
from functools import lru_cache

import twodirac.cli as cli
import twodirac.report as report_mod
from twodirac.report import manifest_to_json, run_check, run_suite


def _run(suites, ns, samples, seed) -> bool:
    """Run each suite at each n; do all reports pass?"""
    ok = True
    for name in suites:
        for n in ns:
            rpt = run_check(name, n, samples, seed, "exact")
            assert (rpt.n, rpt.samples, rpt.seed) == (n, samples, seed)
            for f in rpt.failures[:3]:
                print(f"  {name} n={n} seed={seed}: {f}")
            ok = ok and rpt.passed
    return ok


def _line(num: int, title: str, ok: bool) -> None:
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok


@lru_cache(maxsize=None)
def _symbols_pass(n: int) -> bool:
    # degenerate family + 1000 covectors; each triple asserts s2 s1 = s3 s2 = 0
    return _run(("symbols",), (n,), 1000, 42)


def test_criterion_1_ellipticity():
    _line(1, "ellipticity: exact ranks (s, s, s) at every nonzero covector",
          all([_symbols_pass(n) for n in range(3, 7)]))


def test_criterion_2_complex_property():
    _line(2, "complex property: zero failures over all samples",
          _symbols_pass(3) and _symbols_pass(4))


def test_criterion_3_index_zero():
    _line(3, "index zero with dual dimension pairings, n = 3..12",
          _run(("index", "dims"), range(3, 13), 1, 0))


def test_criterion_4_contact_grading():
    _line(4, "contact grading closure + Heisenberg nondegeneracy, n = 3..8",
          _run(("grading", "heisenberg"), range(3, 9), 1, 0))


def test_criterion_5_covering_identities():
    _line(5, "covering identities: 2:1, double angle, spin^c maps, embedding",
          all([_run(("spin", "spinc", "embedding"), (n,), 100, 1000 + n)
               for n in (3, 4)]))


def test_criterion_6_stabilizer_isomorphisms():
    _line(6, "stabilizer isomorphisms: round trips + homomorphism, 50 each",
          _run(("spinc",), (3,), 50, 2024))


def test_criterion_7_contact_geometry():
    _line(7, "contact geometry at 100 seeded frames, one global sign",
          _run(("contact",), (3,), 100, 777))


def test_criterion_8_flat_operator_symbol_consistency():
    _line(8, "flat operator matches first symbol on 200 seeded triples",
          _run(("flat-dirac",), (3,), 200, 4242))


# SHA-256 of ``run_suite("all", [3], 100, 7)`` as JSON with elapsed_ms zeroed:
# a change that alters any record or draw shows here
ALL_N3_DIGEST = "142a222622445b156727a0efab79a7fdbf0e27431930cd7c8d61b158c8fe9839"


def test_criterion_9_determinism_and_exit_codes(monkeypatch, capsys, tmp_path):
    import re

    def strip(text):
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)

    a = run_suite("all", [3], samples=100, seed=7, mode="exact")
    b = run_suite("all", [3], samples=100, seed=7, mode="exact")
    ok = strip(manifest_to_json(a)) == strip(manifest_to_json(b))
    ok = ok and a.overall_pass
    digest = hashlib.sha256(strip(manifest_to_json(a)).encode()).hexdigest()
    if digest != ALL_N3_DIGEST:
        print(f"  all n=3 report digest {digest}")
        ok = False
    rc = cli.main(["index", "--n", "3", "--format", "json"])
    capsys.readouterr()
    ok = ok and rc == 0

    def broken(n, samples, seed, mode):
        return [{"input": "forced", "expected": "pass", "got": "fail"}]

    monkeypatch.setitem(report_mod.SUITES, "index", (broken, 3))
    rc = cli.main(["index", "--n", "3", "--format", "json"])
    capsys.readouterr()
    ok = ok and rc == 1
    monkeypatch.undo()
    import contextlib
    import io
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["nosuch"])
        ok = False
    except SystemExit as exc:
        ok = ok and exc.code == 2
    _line(9, "byte-identical reports modulo elapsed_ms + 0/1/2 exit codes", ok)
