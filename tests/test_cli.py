import io
import json
import re
import subprocess
import sys

import pytest

from twodirac import __version__
from twodirac import report as report_mod
from twodirac.cli import main, parse_n_range
from twodirac.report import (CheckReport, RunManifest, emit_report,
                             manifest_to_csv, manifest_to_json,
                             manifest_to_text, run_check, run_suite)


def strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def test_parse_n_range():
    assert parse_n_range("4") == [4]
    assert parse_n_range("3..6") == [3, 4, 5, 6]
    with pytest.raises(ValueError):
        parse_n_range("6..3")
    with pytest.raises(ValueError):
        parse_n_range("x")
    with pytest.raises(ValueError):
        parse_n_range("3..y")


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nope", [3], 10, 0)
    with pytest.raises(ValueError):
        run_suite("index", [], 10, 0)
    with pytest.raises(ValueError):
        run_suite("index", [3], 10, 0, mode="fast")
    with pytest.raises(ValueError):
        run_check("symbols", 2, 10, 0, "exact")


def test_run_suite_validates_every_pair_before_any_check_runs(monkeypatch):
    ran = []

    def spy(n, samples, seed, mode):
        ran.append(n)
        return []

    monkeypatch.setitem(report_mod.SUITES, "spin", (spy, 2))
    with pytest.raises(ValueError, match="needs n >= 2, got 1"):
        run_suite("spin", [3, 1], 5, 0)
    assert ran == []


def test_manifest_invariants_and_schema():
    m = run_suite("index", [3, 4], samples=10, seed=0)
    assert m.tool_version == __version__
    assert m.overall_pass == all(c.passed for c in m.checks)
    d = m.to_dict()
    assert list(d.keys()) == ["tool_version", "overall_pass", "checks"]
    for c in d["checks"]:
        assert list(c.keys()) == ["check_name", "n", "samples", "seed", "mode",
                                  "passed", "failures", "elapsed_ms"]
        assert c["passed"] == (c["failures"] == [])


def test_empty_manifest_vacuously_passes():
    m = RunManifest(tool_version=__version__, checks=(), overall_pass=True)
    d = json.loads(manifest_to_json(m))
    assert d == {"tool_version": __version__, "overall_pass": True, "checks": []}


def test_json_round_trip():
    m = run_suite("dims", [3, 5], samples=5, seed=1)
    assert json.loads(manifest_to_json(m)) == m.to_dict()


def test_repeat_runs_identical_modulo_elapsed():
    a = run_suite("heisenberg", [3, 4], samples=25, seed=3)
    b = run_suite("heisenberg", [3, 4], samples=25, seed=3)
    assert strip_elapsed(manifest_to_json(a)) == strip_elapsed(manifest_to_json(b))


def test_csv_one_row_per_check():
    m = run_suite("index", [3, 4, 5], samples=5, seed=0)
    lines = manifest_to_csv(m).strip().splitlines()
    assert lines[0].startswith("check_name,")
    assert len(lines) == 1 + 3


def test_text_output_and_no_color():
    m = run_suite("dims", [3], samples=5, seed=0)
    text = manifest_to_text(m, color=False)
    assert "PASS" in text and "\x1b[" not in text
    colored = manifest_to_text(m, color=True)
    assert "\x1b[32m" in colored
    # dims gets its informational table in text format
    assert "weights" in text
    buf = io.StringIO()
    emit_report(m, "text", buf)
    assert "\x1b[" not in buf.getvalue()  # StringIO is not a tty
    with pytest.raises(ValueError):
        emit_report(m, "yaml", buf)


def test_cli_exit_zero_on_pass(capsys):
    rc = main(["index", "--n", "3..5", "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["overall_pass"] is True


def test_cli_exit_one_on_failure(monkeypatch, capsys):
    def broken(n, samples, seed, mode):
        return [{"input": "forced", "expected": "pass", "got": "fail"}]

    monkeypatch.setitem(report_mod.SUITES, "index", (broken, 3))
    rc = main(["index", "--n", "3", "--format", "json"])
    assert rc == 1
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["overall_pass"] is False
    assert parsed["checks"][0]["failures"][0]["input"] == "forced"


def test_cli_reports_a_crashing_suite_as_a_failure(monkeypatch, tmp_path):
    def crashing(n, samples, seed, mode):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(report_mod.SUITES, "index", (crashing, 3))
    out = tmp_path / "report.json"
    rc = main(["index", "--n", "3..4", "--format", "json", "--out", str(out)])
    assert rc == 1
    parsed = json.loads(out.read_text())
    assert parsed["overall_pass"] is False
    assert [c["failures"] for c in parsed["checks"]] == [
        [{"input": f"index n={n}", "expected": "no exception",
          "got": "ZeroDivisionError: boom"}] for n in (3, 4)]
    # validation still happens before the body runs, and still exits 2
    with pytest.raises(SystemExit) as exc:
        main(["index", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(ValueError):
        run_check("index", 3, 0, 0, "exact")
    with pytest.raises(ValueError):
        run_check("index", 3, 1, 0, "nosuch")


def test_cli_exit_two_on_usage_errors(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["nosuch"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["symbols", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["symbols", "--n", "5..3"])
    assert exc.value.code == 2
    rc = main(["index", "--n", "3", "--out", str(tmp_path / "no" / "dir" / "x")])
    assert rc == 2


def test_sample_counts_below_one_are_rejected():
    for argv in (["symbols", "--samples", "-5"], ["spin", "--samples", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    with pytest.raises(ValueError):
        run_suite("index", [3], 0, 0)
    with pytest.raises(ValueError):
        run_check("spin", 3, -5, 0, "exact")


def test_cli_writes_file(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["index", "--n", "3..8", "--format", "json", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["checks"]) == 6
    assert all(c["passed"] for c in data["checks"])


def test_cli_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "twodirac", "dims", "--n", "3..4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_check_report_purity():
    a = run_check("spin", 3, 20, 5, "exact")
    b = run_check("spin", 3, 20, 5, "exact")
    assert a.failures == b.failures == ()
    assert a.passed and b.passed
    assert isinstance(a, CheckReport)
    assert a.elapsed_ms >= 0
