"""Self-tests of the benchmark harness; run with ``python3 -m pytest perfbench/tests``.

They use tiny inputs (n = 3, samples = 1), so the harness cannot rot while
the full workloads stay too slow for a test.
"""

import gzip
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def tiny(workload):
    suites = dict.fromkeys(suite for suite, _, _ in run.WORKLOADS[workload][1])
    return [(suite, 3, 1) for suite in suites]


@pytest.fixture(scope="module")
def spans_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("spans")


@pytest.fixture(scope="module")
def traced_runs(spans_dir):
    return {name: run.run_workload(tiny(name), 0, 0, True, str(spans_dir / f"{name}.tsv.gz"))
            for name in run.WORKLOADS}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_untraced(workload):
    result = run.run_workload(tiny(workload), 0, 0, False)
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * len(tiny(workload))
    metrics = run.metrics_of(result, False)
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in metrics.values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_traced(workload, traced_runs):
    result = traced_runs[workload]
    assert result["failed"] == 0
    metrics = run.metrics_of(result, True)
    assert [(k, v["unit"]) for k, v in metrics.items()] == run.per_layer_units()
    assert all(math.isfinite(v["value"]) for v in metrics.values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_listed_span_records_calls(workload, traced_runs):
    stats = traced_runs[workload]["rounds"][True][0]["trace"]
    expected = [span for span, _, on in tracer.LAYERS if workload in on]
    expected += [counter for counter, on in tracer.COUNTERS if workload in on]
    assert [name for name in expected if stats[name]["calls"] == 0] == []


def test_calls_identical_across_runs_at_one_seed():
    checks = [c for name in run.WORKLOADS for c in tiny(name)]
    counts = []
    for _ in range(2):
        res = run.run_worker(checks, 5, True)
        counts.append(tracer.call_counts(res["trace"]))
    assert counts[0] == counts[1]
    assert counts[0]["linalg.Matrix.__matmul__"] > 0


def test_spans_file_is_written(traced_runs, spans_dir):
    with gzip.open(spans_dir / "geometry.tsv.gz", "rt", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert header == ["check", "span", "parent", "name", "start_ns", "end_ns"]
    assert rows
    ids = {row[1] for row in rows}
    for check, _, parent, name, start, end in rows:
        assert parent == "-1" or parent in ids
        assert name in tracer.Tracer().names
        assert int(start) <= int(end)
    assert {row[0] for row in rows} >= {"-1", "0"}


def test_install_patches_every_namespace_and_uninstall_restores():
    from twodirac import graded, linalg, report, spin
    original_det = linalg.det
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in (linalg, report, spin, graded):
            assert mod.det is not original_det
            assert mod.det.__wrapped__ is original_det
        assert linalg.Matrix.__matmul__.__wrapped__ is not None
        assert spin.SpinElement.__init__.__wrapped__ is not None
        for name in sys.modules:
            if name.startswith("twodirac"):
                assert vars(sys.modules[name]).get("det") in (None, linalg.det)
        report.run_check("heisenberg", 3, 1, 0, "exact")
        assert tr.stats()["linalg.det"]["calls"] > 0
    finally:
        tr.uninstall()
    assert all(mod.det is original_det for mod in (linalg, report, spin, graded))


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    # one parent span of 10 s holding two children of 3 s and 4 s
    tr.span_name += [0, 1, 1]
    tr.span_parent += [-1, 0, 0]
    tr.span_check += [0, 0, 0]
    tr.span_start += [0.0, 1.0, 5.0]
    tr.span_end += [10.0, 4.0, 9.0]
    stats = tr.stats()
    parent, child = stats[tr.names[0]], stats[tr.names[1]]
    assert (parent["calls"], parent["total_s"], parent["self_s"]) == (1, 10.0, 3.0)
    assert (child["calls"], child["total_s"], child["self_s"]) == (2, 7.0, 7.0)


def test_gate_counts_digest_mismatch_and_failed_checks(monkeypatch):
    checks = [("dims", 3, 1), ("index", 3, 1)]
    outcomes = iter([("a", True), ("b", True), ("a", True), ("x", True), ("a", False),
                     ("b", True)])

    def fake_worker(checks, seed, trace, spans_out=None):
        results = [dict(zip(("digest", "passed"), next(outcomes)), wall_s=0.1, ref_s=0.1)
                   for _ in checks]
        return {"checks": results, "digest": "d", "peak_rss_mb": 1.0, "trace": None}

    monkeypatch.setattr(run, "run_worker", fake_worker)
    result = run.run_workload(checks, 0, 0, False)
    assert (result["attempted"], result["failed"]) == (6, 2)


def test_host_speed_window_subtracts_sampling_time():
    previous = signal.getsignal(signal.SIGALRM)
    try:
        host = worker.HostSpeed()
        with host.window() as timing:
            deadline = time.perf_counter() + 0.5
            while time.perf_counter() < deadline:
                pass
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(host.samples_ms) >= 5   # before, after, and every 0.1 s between
    assert 0.3 < timing["work_s"] < timing["wall_s"]
    assert timing["speed"] > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tracer.tail(list(range(100))) == (90.0, 89)
    assert tracer.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tracer.WORKLOADS == tuple(run.WORKLOADS)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, why) for name, (why, _) in run.WORKLOADS.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()


def test_refuses_to_run_without_the_verifier(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "geometry",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
