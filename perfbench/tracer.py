"""Span tracer for the verifier's layers, installed from outside the package.

``Tracer.install`` wraps the functions and methods named in ``LAYERS`` in
every ``twodirac`` namespace that bound them (``from .linalg import det``
binds ``det`` in ``report``, ``spin`` and ``graded`` as well as in
``linalg``), so each call records one span: its name, start, end, parent
span and the id of the check it ran in.  Spans stay in memory until
``write_spans``; ``stats`` folds them into per-name call counts, total and
self time.  Object constructions listed in ``COUNTERS`` are counted without
spans, because each takes about a microsecond.

The verifier runs in one thread and never waits, so there is no wait time to
record: a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("symbols-scan", "spin-groups", "geometry")
_SPIN = ("spin-groups",)
_SYM = ("symbols-scan",)
_GEO = ("geometry",)

# (span, stats reported, workloads on which the span must record calls).
# A span is "<module>.<function>" or "<module>.<Class>.<method>".
LAYERS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("clifford.build_gamma_rep", ("calls", "total_s"), WORKLOADS),
    ("clifford.clifford_mat", ("calls", "self_s"), _SYM + _SPIN),
    ("symbols.symbol_triple", ("calls", "total_s"), _SYM),
    ("symbols.exactness_report", ("calls", "total_s", "p50_ms", "tail_ms"), _SYM),
    ("linalg.rank_bareiss", ("calls", "self_s"), _SYM),
    ("linalg.Matrix.__matmul__", ("calls", "self_s"), WORKLOADS),
    ("linalg.det", ("calls", "self_s"), _SPIN + _GEO),
    ("linalg.inverse", ("calls", "self_s"), _GEO),
    ("linalg.rank", ("calls", "self_s"), _GEO),
    ("spin.rho_n", ("calls", "total_s", "p50_ms", "tail_ms"), _SYM + _SPIN),
    ("spin.SpinElement.__init__", ("calls", "self_s"), _SYM + _SPIN),
    ("spin.RationalRotation.__post_init__", ("calls", "total_s"), _SYM + _SPIN),
    ("spin.iota_embed", ("calls", "total_s"), _SPIN),
    ("graded.bracket", ("calls", "self_s"), _GEO),
    ("graded.grade_project", ("calls", "self_s"), _GEO),
    ("graded.is_parabolic_member", ("calls", "self_s"), _GEO),
    ("graded.is_levi_member", ("calls", "self_s"), _GEO),
    ("stiefel.random_frame_with_complement", ("calls", "self_s"), _GEO),
    ("stiefel.quotient_q", ("calls", "self_s"), _GEO),
    ("stiefel.ksharp_act", ("calls", "self_s"), _GEO),
    ("stiefel.levi_form_H", ("calls", "self_s"), _GEO),
    ("flat.apply_flat_2dirac", ("calls", "total_s"), _GEO),
    ("flat.symbol_cross_check", ("calls", "total_s"), _GEO),
    ("flat.linear_power_field", ("calls", "total_s"), _GEO),
    ("sampling.rotation", ("calls", "self_s"), _GEO),
    ("sampling.unit_vector", ("calls", "self_s"), _SYM + _SPIN),
    ("sampling.circle_point", ("calls", "self_s"), WORKLOADS),
    ("report.run_check", ("self_s",), WORKLOADS),
)

# Classes whose constructions are counted (no spans).
COUNTERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("scalars.GaussianRational", WORKLOADS),
)

# Spans whose per-call durations are kept for p50_ms / tail_ms.
DURATION_SPANS = tuple(span for span, stats, _ in LAYERS if "p50_ms" in stats)


def metric_names() -> List[str]:
    """Every per-layer metric a traced run reports, in table order."""
    names = [f"{span}.{stat}" for span, stats, _ in LAYERS for stat in stats]
    names += [f"{counter}.calls" for counter, _ in COUNTERS]
    return names


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten values
    beyond it; with fewer than eleven values, (100, max)."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return 100.0, ordered[-1]
    return 100.0 * (count - 10) / count, ordered[count - 11]


def _package_modules() -> List[object]:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "twodirac" or name.startswith("twodirac."))]


class Tracer:
    """Records spans of the ``LAYERS`` functions while installed."""

    def __init__(self) -> None:
        self.names: List[str] = [span for span, _, _ in LAYERS]
        self.check_id = -1            # -1 marks set-up, before the first check
        self.span_name: List[int] = []
        self.span_parent: List[int] = []
        self.span_check: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.counts: Dict[str, List[int]] = {c: [0] for c, _ in COUNTERS}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function where it is looked up; import
        ``twodirac.report`` first so that every module is loaded."""
        modules = _package_modules()
        by_name = {mod.__name__.rsplit(".", 1)[-1]: mod for mod in modules}
        for name_id, span in enumerate(self.names):
            module, *path = span.split(".")
            owner = by_name[module]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            wrapped = self._span(name_id, original)
            if len(path) > 1:
                # a method: patch it on its class, where instances look it up
                self._patch(owner, path[-1], wrapped)
                continue
            for mod in modules:
                if mod.__dict__.get(path[-1]) is original:
                    self._patch(mod, path[-1], wrapped)
        for counter, _ in COUNTERS:
            module, cls_name = counter.split(".")
            cls = getattr(by_name[module], cls_name)
            self._patch(cls, "__init__", self._count(self.counts[counter], cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _span(self, name_id: int, fn):
        names, parents, checks = self.span_name, self.span_parent, self.span_check
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            checks.append(tracer.check_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    @staticmethod
    def _count(cell: List[int], init):
        @functools.wraps(init)
        def counted(self, *args, **kwargs):
            cell[0] += 1
            init(self, *args, **kwargs)
        return counted

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, total_s, self_s, and for ``DURATION_SPANS``
        the list of call durations in ms; per counter: calls."""
        child_time = [0.0] * len(self.span_name)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_time[parent] += self.span_end[idx] - self.span_start[idx]
        out = {span: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for span in self.names}
        for span in DURATION_SPANS:
            out[span]["durations_ms"] = []
        for idx, name_id in enumerate(self.span_name):
            dur = self.span_end[idx] - self.span_start[idx]
            rec = out[self.names[name_id]]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_time[idx]
            if "durations_ms" in rec:
                rec["durations_ms"].append(dur * 1000.0)
        for counter, cell in self.counts.items():
            out[counter] = {"calls": cell[0]}
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line: check id, span id,
        parent span id, name, start and end in ns since the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("check\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for idx, name_id in enumerate(self.span_name):
                fh.write(f"{self.span_check[idx]}\t{idx}\t{self.span_parent[idx]}\t"
                         f"{self.names[name_id]}\t"
                         f"{round((self.span_start[idx] - origin) * 1e9)}\t"
                         f"{round((self.span_end[idx] - origin) * 1e9)}\n")


def merge_rounds(rounds: Sequence[dict], speeds: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics from the ``stats`` of several traced workers.

    Calls come from the first worker (callers check they are identical).
    Times are scaled by each worker's host-speed factor; totals are medians
    over workers, and p50_ms / tail_ms pool the call durations of all workers.
    """
    metrics: Dict[str, float] = {}
    for span, stats, _ in LAYERS:
        recs = [r[span] for r in rounds]
        for stat in stats:
            if stat == "calls":
                value = recs[0]["calls"]
            elif stat in ("total_s", "self_s"):
                value = statistics.median(r[stat] * f for r, f in zip(recs, speeds))
            else:
                pooled = [d * f for r, f in zip(recs, speeds) for d in r["durations_ms"]]
                if not pooled:
                    value = 0.0
                elif stat == "p50_ms":
                    value = statistics.median(pooled)
                else:
                    value = tail(pooled)[1]
            metrics[f"{span}.{stat}"] = value
    for counter, _ in COUNTERS:
        metrics[f"{counter}.calls"] = rounds[0][counter]["calls"]
    return metrics


def call_counts(stats: dict) -> Dict[str, int]:
    """The exact part of one worker's ``stats``: calls per span and counter."""
    return {name: rec["calls"] for name, rec in stats.items()}
