"""One benchmark round in a fresh interpreter.

Usage: python3 worker.py JOB, where JOB is a JSON object with keys
``root`` (the repository root), ``checks`` (a list of [suite, n, samples]),
``seed``, ``trace`` (bool) and ``spans_out`` (a path or null).

The worker imports the verifier from ``<root>/src``, installs the tracer when
asked, builds the gamma representations the checks use (``build_gamma_rep``
is cached per process, so every CLI run pays this set-up again) and prints a
ready line.  Then it runs every check once through ``report.run_check``, the
call the ``twodirac`` CLI makes.  Its last line is one JSON object with the
per-check times, digests and outcomes, its peak RSS and, when traced, the
tracer's statistics.

Times come in two forms: ``wall_s``, and ``ref_s``, the same work in
reference-host seconds (see ``HostSpeed``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

# HostSpeed's calibration task on the reference host (2-core Xeon, Python
# 3.11.7) when the host is quiet
REFERENCE_CAL_MS = 3.0
SAMPLE_INTERVAL_S = 0.1

_CAL_RNG = random.Random(2017)
_CAL_MATRIX = [[Fraction(_CAL_RNG.randint(-9, 9), _CAL_RNG.randint(1, 9)) for _ in range(10)]
               for _ in range(10)]


def calibration_task() -> None:
    """Square a fixed 10 x 10 Fraction matrix.  It does not use the verifier,
    and like the verifier it allocates many small exact numbers."""
    [[sum((row[k] * _CAL_MATRIX[k][j] for k in range(10)), Fraction(0)) for j in range(10)]
     for row in _CAL_MATRIX]


class HostSpeed:
    """Measures how fast the host runs while the work runs.

    A shared host changes speed by large factors within seconds.  Timing a
    calibration task between rounds missed much of that drift, so while a
    ``window`` is open a SIGALRM handler times the task every
    ``SAMPLE_INTERVAL_S`` of wall time, in the middle of the work.  The window
    reports the work's wall time minus the handler's, and the speed factor
    ``REFERENCE_CAL_MS`` / (mean sample), which turns work seconds into
    reference-host seconds.
    """

    def __init__(self) -> None:
        self.samples_ms: list = []
        self._busy_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> None:
        start = time.perf_counter()
        calibration_task()
        self.samples_ms.append((time.perf_counter() - start) * 1000.0)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._sample()
        self._busy_s += time.perf_counter() - start

    @contextmanager
    def window(self):
        """Yield a dict that holds wall_s, work_s and speed on exit."""
        first = len(self.samples_ms)
        self._sample()
        busy = self._busy_s
        out: dict = {}
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield out
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._sample()
            out["wall_s"] = wall
            out["work_s"] = wall - (self._busy_s - busy)
            out["speed"] = REFERENCE_CAL_MS / statistics.mean(self.samples_ms[first:])


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    job = json.loads(argv[1])
    host = HostSpeed()
    with host.window() as setup:
        sys.path.insert(0, os.path.join(job["root"], "src"))
        import twodirac
        from twodirac import clifford, report

        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()

        checks = [tuple(c) for c in job["checks"]]
        setup_ns = sorted({n for _, n, _ in checks}
                          | {n + 2 for suite, n, _ in checks if suite == "embedding"})
        for n in setup_ns:
            clifford.build_gamma_rep(n)
    # the parent times set-up up to this line; it subtracts the handler's share
    _emit({"event": "ready", "busy_s": setup["wall_s"] - setup["work_s"],
           "speed": setup["speed"]})

    first_check_sample = len(host.samples_ms)
    results, reports = [], []
    for check_id, (suite, n, samples) in enumerate(checks):
        if tracer is not None:
            tracer.check_id = check_id
        rpt, error = None, None
        with host.window() as timing:
            try:
                rpt = report.run_check(suite, n, samples, job["seed"], "exact")
            except Exception as exc:  # a crash is a failed check, never a pass
                error = f"{type(exc).__name__}: {exc}"
        results.append({"suite": suite, "n": n, "wall_s": timing["wall_s"],
                        "ref_s": timing["work_s"] * timing["speed"],
                        "passed": rpt is not None and rpt.passed, "error": error,
                        "digest": f"error:{error}" if error else None})
        if rpt is not None:
            reports.append(rpt)

    # digests of the CLI's JSON report with elapsed_ms removed
    manifest = report.RunManifest(tool_version=twodirac.__version__,
                                  checks=tuple(reports),
                                  overall_pass=all(r.passed for r in reports))
    body = json.loads(report.manifest_to_json(manifest))
    check_bodies = iter(body["checks"])
    for res in results:
        if res["error"] is None:
            check = next(check_bodies)
            del check["elapsed_ms"]
            res["digest"] = _sha256(check)
    digest = _sha256(body)

    check_samples = host.samples_ms[first_check_sample:]
    out = {"event": "done", "checks": results, "digest": digest,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "calibration_ms": host.samples_ms,
           "speed": REFERENCE_CAL_MS / statistics.mean(check_samples),
           "trace": None}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.stats()
        if job["spans_out"]:
            tracer.write_spans(job["spans_out"])
    _emit(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
