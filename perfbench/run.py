"""Benchmark of the twodirac verifier: end-to-end time, set-up and memory per
workload, and per-layer spans in a separate traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload symbols-scan --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one summary

Each round starts a fresh worker process (``worker.py``), one at a time: the
worker imports the verifier, builds the gamma representations its checks
use, reports that it is ready, and calls ``report.run_check`` once for every
(suite, n, samples) of the workload with the given seed.  Rounds repeat until
``--seconds`` would be exceeded, with at least ``MIN_ROUNDS``.

With ``--trace 0`` the run reports the end-to-end metrics, medians over its
rounds.  With ``--trace 1`` it alternates traced and untraced rounds and
reports the per-layer metrics of ``tracer.LAYERS`` plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

On a shared 2-core Xeon host the speed of the same work drifted by up to
1.7x within seconds, which would swamp any change under test.  So every time
metric is in reference-host seconds: the worker samples a fixed calibration
task while the work runs (``worker.HostSpeed``) and scales the work's time by
how much slower than the reference the task ran.  The summary lines print the
wall-clock figures too.

A check counts as failed if it does not pass, raises, or its report digest
(the JSON report without elapsed_ms) differs from the first round's; a traced
round also fails when its call counts differ from the first traced round's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from worker import REFERENCE_CAL_MS  # noqa: E402

Check = Tuple[str, int, int]  # (suite, n, samples)

# Each workload stresses other layers; see the "why" lines.  Sample counts
# keep a round at a few seconds, so a run holds several rounds, and average
# out how much work a seed draws.  flat-dirac gets one sample: its cost grows
# steeply with a seeded degree k <= 5; with five samples its n = 4 check took
# 0.16..0.71 s depending on the seed.
_GEOMETRY_SAMPLES = {"grading": 10, "heisenberg": 10, "contact": 30, "flat-dirac": 1,
                     "index": 10, "dims": 10}
WORKLOADS: Dict[str, Tuple[str, List[Check]]] = {
    "symbols-scan": (
        "symbol triples and Bareiss ranks on s = 8 Gaussian-integer matrices; "
        "where an integer or modular rank kernel shows",
        [("symbols", 6, 5), ("symbols", 7, 5)]),
    "spin-groups": (
        "dense rational products in rho_n, spin words and rotation validation; "
        "never ranks, where one exact-matrix kernel shows",
        [(suite, n, 6) for suite in ("spin", "spinc", "embedding") for n in (3, 4)]),
    "geometry": (
        "many small rational matrices and field-elimination det/inverse/rank; "
        "guards against per-call overhead",
        [(suite, n, samples) for suite, samples in _GEOMETRY_SAMPLES.items()
         for n in (3, 4)]),
}

END_TO_END = (("verify_s", "s"), ("setup_s", "s"), ("slowest_check_s", "s"),
              ("peak_rss_mb", "MB"))
OVERHEAD = "trace.overhead_s"
MIN_ROUNDS = 3           # untraced rounds in a --trace 0 run
MIN_TRACED_ROUNDS = 2    # traced and untraced rounds each in a --trace 1 run
LOOP_CEILING_S = 140.0   # start no round after this, so a run ends within 180 s
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run (no verifier, a worker never got ready)."""


def per_layer_units() -> List[Tuple[str, str]]:
    units = []
    for name in tracer.metric_names() + [OVERHEAD]:
        stat = name.rsplit(".", 1)[-1]
        units.append((name, "count" if stat == "calls" else stat.rsplit("_", 1)[-1]))
    return units


# -- one round ------------------------------------------------------------------

def run_worker(checks: Sequence[Check], seed: int, trace: bool,
               spans_out: Optional[str] = None) -> Optional[dict]:
    """Start a fresh worker and return its result, with the set-up time added
    as setup_wall_s and, in reference-host seconds, setup_s.

    The result is None when the worker died after it became ready.
    """
    job = {"root": str(ROOT), "checks": [list(c) for c in checks], "seed": seed,
           "trace": trace, "spans_out": spans_out}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_wall = time.perf_counter() - start
        if not ready.startswith('{"event": "ready"'):
            raise BenchError(f"worker did not get ready (exit {proc.wait()})")
        ready = json.loads(ready)
        lines = proc.stdout.read().splitlines()
    except BaseException:
        proc.kill()   # failed or interrupted: leave no worker behind
        raise
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
        killer.join()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is not None:
        result["setup_wall_s"] = setup_wall
        result["setup_s"] = (setup_wall - ready["busy_s"]) * ready["speed"]
    return result


# -- one run --------------------------------------------------------------------

def run_workload(checks: Sequence[Check], seed: int, seconds: float, trace: bool,
                 spans_out: Optional[str] = None) -> dict:
    """Rounds of ``checks`` for about ``seconds``; returns the run's record."""
    kinds = [True, False] if trace else [False]
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    rounds: Dict[bool, List[dict]] = {True: [], False: []}
    durations: Dict[bool, List[float]] = {True: [], False: []}
    attempted = failed = 0
    reference: Optional[List[str]] = None
    reference_calls: Optional[dict] = None
    started = time.perf_counter()
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        elapsed = time.perf_counter() - started
        if durations[kind]:
            predicted = elapsed + statistics.median(durations[kind])
            enough = all(len(rounds[k]) >= min_rounds for k in kinds)
            if (enough and predicted > seconds) or elapsed > LOOP_CEILING_S:
                break
        t0 = time.perf_counter()
        res = run_worker(checks, seed, kind, spans_out if kind else None)
        durations[kind].append(time.perf_counter() - t0)
        turn += 1
        attempted += len(checks)
        if res is None:
            failed += len(checks)
            continue
        digests = [c["digest"] for c in res["checks"]]
        if reference is None:
            reference = digests
        bad = sum(1 for c, ref in zip(res["checks"], reference)
                  if not c["passed"] or c["digest"] != ref)
        if kind:
            calls = tracer.call_counts(res["trace"])
            if reference_calls is None:
                reference_calls = calls
            elif calls != reference_calls:
                bad = len(checks)
        failed += bad
        rounds[kind].append(res)
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "digest": rounds[False][0]["digest"] if rounds[False] else None}


def check_times(rounds: Sequence[dict], wall: bool = False) -> List[Tuple[float, ...]]:
    """Per check of the workload, its time in every round."""
    key = "wall_s" if wall else "ref_s"
    return list(zip(*([c[key] for c in r["checks"]] for r in rounds)))


def end_to_end(rounds: Sequence[dict], wall: bool = False) -> Dict[str, List[float]]:
    """Per-round samples of every end-to-end metric, in reference-host
    seconds unless ``wall``.  slowest_check_s holds the per-round time of the
    check whose median is largest."""
    per_check = check_times(rounds, wall)
    return {"verify_s": [sum(times) for times in zip(*per_check)],
            "setup_s": [r["setup_wall_s" if wall else "setup_s"] for r in rounds],
            "slowest_check_s": list(max(per_check, key=statistics.median)),
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds]}


def metrics_of(run: dict, trace: bool) -> Dict[str, dict]:
    untraced = run["rounds"][False]
    samples = end_to_end(untraced)
    if not trace:
        return {name: {"value": statistics.median(samples[name]), "unit": unit}
                for name, unit in END_TO_END}
    traced = run["rounds"][True]
    values = tracer.merge_rounds([r["trace"] for r in traced], [r["speed"] for r in traced])
    traced_verify = statistics.median(end_to_end(traced)["verify_s"])
    values[OVERHEAD] = traced_verify - statistics.median(samples["verify_s"])
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units()}


# -- run metadata ---------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(), "seed": seed}


# -- reporting ------------------------------------------------------------------

def _spread(samples: Sequence[float]) -> str:
    pct, value = tracer.tail(samples)
    tail_txt = (f"p{pct:.0f} {value:.4f}" if len(samples) >= 11
                else f"max {value:.4f} (a tail percentile needs >= 11 rounds)")
    return f"median of {len(samples)} rounds, {tail_txt}"


def summary_lines(name: str, run: dict, metrics: Dict[str, dict], trace: bool) -> List[str]:
    untraced = run["rounds"][False]
    lines = []
    cal = [ms for kind in (False, True) for r in run["rounds"][kind] for ms in r["calibration_ms"]]
    lines.append(f"{name:<13} calibration      {statistics.median(cal):>12.4f} ms    "
                 f"median of {len(cal)} samples, range {min(cal):.3f}..{max(cal):.3f} "
                 f"(reference {REFERENCE_CAL_MS})")
    if not trace:
        samples, wall = end_to_end(untraced), end_to_end(untraced, wall=True)
        for metric, unit in END_TO_END:
            wall_txt = (f"; wall median {statistics.median(wall[metric]):.4f}"
                        if unit == "s" else "")
            lines.append(f"{name:<13} {metric:<16} {metrics[metric]['value']:>12.4f} {unit:<5} "
                         f"{_spread(samples[metric])}{wall_txt}")
        checks = check_times(untraced)
        pct, value = tracer.tail([t for per in checks for t in per])
        lines.append(f"{name:<13} check_s          {'':>12} s     "
                     f"{len(checks) * len(untraced)} check runs, p{pct:.0f} {value:.4f}")
        for (suite, n), times in zip(((c["suite"], c["n"]) for c in untraced[0]["checks"]),
                                     checks):
            lines.append(f"{name:<13}   {suite:<11} n={n}   {statistics.median(times):>10.4f} s")
    else:
        for metric, rec in metrics.items():
            value = rec["value"]
            text = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6f}"
            lines.append(f"{name:<13} {metric:<46} {text} {rec['unit']}")
        lines.append(f"{name:<13} traced rounds {len(run['rounds'][True])}, "
                     f"untraced rounds {len(untraced)}")
    ratio = run["failed"] / run["attempted"]
    lines.append(f"{name:<13} fail_ratio       {ratio:>12.4f} ratio "
                 f"({run['failed']} failed of {run['attempted']} checks)")
    lines.append(f"{name:<13} report digest    {run['digest']}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so run_worker's cleanup stops the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "twodirac" / "report.py").is_file():
        print(f"perfbench: no verifier under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"meta {json.dumps(metadata(args.seed))}")
    out_dir = HERE / "out"
    all_metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        spans_out = None
        if trace:
            out_dir.mkdir(exist_ok=True)
            spans_out = str(out_dir / f"{name}-seed{args.seed}.spans.tsv.gz")
        try:
            run = run_workload(WORKLOADS[name][1], args.seed, args.seconds, trace, spans_out)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if not run["rounds"][False] or (trace and not run["rounds"][True]):
            print("perfbench: every worker died", file=sys.stderr)
            return 1
        metrics = metrics_of(run, trace)
        print(f"{name:<13} workload: {WORKLOADS[name][0]}")
        for line in summary_lines(name, run, metrics, trace):
            print(line)
        if spans_out:
            print(f"{name:<13} spans of the last traced round: {os.path.relpath(spans_out)}")
        attempted += run["attempted"]
        failed += run["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
