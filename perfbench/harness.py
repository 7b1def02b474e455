"""Shared plumbing of the benchmark: timing, spans, memory and the result line.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src/`` on the import path.
"""

from __future__ import annotations

import json
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: The end-to-end metrics of the final JSON line, with units.  Every workload
#: reports all of them; README.md maps each onto the workload's named metric.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_s": "1/s",
    "latency_ms": "ms",
}

#: The thirteen named end-to-end metrics, printed for every workload ("-"
#: where the metric does not apply to it).
NAMED = {
    "setup_s": "s",
    "error_rate": "fraction",
    "peak_rss_mb": "MiB",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "cells_per_s": "1/s",
    "resume_cells_per_s": "1/s",
    "p50_ms_low": "ms",
    "p99_ms_low": "ms",
    "p50_ms_high": "ms",
    "p99_ms_high": "ms",
    "goodput_rps": "req/s",
}

#: Per-layer metrics of the traced run, with units.  Times are milliseconds
#: per operation of the workload (solve, request or study cell) unless the
#: name says otherwise; a layer the workload's traced run never enters reads 0.
PER_LAYER = {
    "latency.batch_build_ms": "ms",
    "latency.grid_build_ms": "ms",
    "latency.subgrid_build_ms": "ms",
    "latency.grid_builds": "count",
    "equilibrium.water_fill_cold_ms": "ms",
    "equilibrium.water_fill_warm_ms": "ms",
    "equilibrium.water_fill_calls": "count",
    "core.optop_rounds": "count",
    "core.optop_self_ms": "ms",
    "core.induce_ms": "ms",
    "serialization.digest_ms": "ms",
    "api.report_build_ms": "ms",
    "api.report_json_ms": "ms",
    "equilibrium.network_optimum_ms": "ms",
    "equilibrium.network_nash_ms": "ms",
    "equilibrium.fw_iterations": "count",
    "equilibrium.fw_final_gap": "ratio",
    "equilibrium.fw_unconverged": "count",
    "equilibrium.pathbased_share": "fraction",
    "paths.aon_ms": "ms",
    "paths.aon_fw_estimate_ms": "ms",
    "core.mop_self_ms": "ms",
    "check.optimum_rel_gap_max": "ratio",
    "client.gen_lag_ms_p99": "ms",
    "client.hot_p50_ms": "ms",
    "client.cold_p50_ms": "ms",
    "cluster.encode_ms": "ms",
    "cluster.decode_ms": "ms",
    "cluster.request_bytes": "bytes",
    "cluster.response_bytes": "bytes",
    "cluster.forwarded": "count",
    "cluster.retries": "count",
    "cluster.reroutes": "count",
    "cluster.gateway_self_ms": "ms",
    "cluster.worker_self_ms": "ms",
    "serve.tier1_hit_rate": "fraction",
    "serve.tier2_hit_rate": "fraction",
    "serve.coalesced": "count",
    "serve.batches": "count",
    "serve.batch_size_mean": "count",
    "serve.queue_wait_ms": "ms",
    "serve.queue_peak": "count",
    "serve.rejected": "count",
    "serve.timeouts": "count",
    "serve.batch_ms": "ms",
    "study.expand_ms": "ms",
    "study.store_put_ms": "ms",
    "study.store_get_ms": "ms",
    "study.solved": "count",
    "study.resumed": "count",
    "api.batch_groups": "count",
    "api.cache_hits": "count",
    "api.cache_misses": "count",
    "equilibrium.water_fill_many_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}


class InvalidRun(RuntimeError):
    """The run broke a precondition of the measurement (e.g. a cache hit on
    the cold path); its figures mean nothing and no result is printed."""


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process (plus the largest waited-for child
    process when ``children``), in MiB.  Linux reports ``ru_maxrss`` in KiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def timed_setup(build, reps: int):
    """Run ``build()`` ``reps`` times; returns (last result, median seconds).

    Set-up is repeated so that ``setup_s`` is a median, not one noisy
    sample; only the last result is kept for the measurement.
    """
    durations = []
    result = None
    for _ in range(reps):
        result = None  # let the previous inputs go before building anew
        start = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - start)
    return result, float(np.median(durations))


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    request: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory spans: name, start, end, parent and request id.

    Spans nest by call order (one thread); :meth:`add` records spans timed
    elsewhere, such as the ones a cluster reports for its own processes.
    """

    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, request: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, parent, name, time.perf_counter(),
                               math.nan, request))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, request: str,
            parent: Optional[int] = None) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent, name, start, end, request))
        return span_id

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name: a span's duration minus the
        part of its interval that its child spans cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = _covered(span, children.get(span.span_id, ()))
            totals[span.name] = totals.get(span.name, 0.0) \
                + max(0.0, span.duration - covered)
        return totals

    def durations(self) -> Dict[str, float]:
        """Seconds of total (inclusive) duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + 1
        return totals

    def roots_total(self) -> float:
        return sum(span.duration for span in self.spans if span.parent is None)

    def dump(self, path) -> None:
        """Write the spans out (called once, when the run ends)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)


def _covered(parent: Span, kids: Iterable[Span]) -> float:
    """Length of the union of the children's intervals, clipped to the parent."""
    intervals = sorted((max(parent.start, kid.start), min(parent.end, kid.end))
                       for kid in kids)
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in intervals:
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def trace_honesty(tracer: Tracer, untraced_s: float, ops: int,
                  traced_s: Optional[float] = None) -> Dict[str, float]:
    """``trace.unattributed_ms`` (per operation) and ``trace.overhead_pct``.

    ``untraced_s`` is the end-to-end time of the same operations run without
    spans; the traced end-to-end time defaults to the sum of the root spans.
    """
    if traced_s is None:
        traced_s = tracer.roots_total()
    self_sum = sum(tracer.self_times().values())
    return {
        "trace.unattributed_ms": 1e3 * (untraced_s - self_sum) / max(ops, 1),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s
        if untraced_s > 0 else 0.0,
    }


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
@dataclass
class Tally:
    """Attempted and failed operations of a run.

    An operation fails on an exception, a timeout, a rejection or any failed
    check.  Only a ``"wrong"`` check failure makes the run incorrect; see
    :mod:`checker` for the two kinds.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: List[str] = field(default_factory=list)

    def error(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        self._note(f"{label}: {type(exc).__name__}: {exc}")

    def checked(self, label: str, fails) -> None:
        if not fails:
            return
        self.failed += 1
        if any(f.kind == "wrong" for f in fails):
            self.wrong += 1
        for f in fails:
            self._note(f"{label}: {f.kind} {f.check}: {f.detail}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    tally: Tally
    metrics: Dict[str, float]
    named: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


def metric_block(values: Dict[str, float], units: Dict[str, str]
                 ) -> Dict[str, Dict[str, object]]:
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def human_table(rows: List[Tuple[str, Dict[str, float]]],
                units: Dict[str, str]) -> str:
    """One row per workload, one column per metric (``name[unit]``)."""
    headers = ["workload"] + [f"{name}[{unit}]" for name, unit in units.items()]
    body = [[workload] + [_fmt(values.get(name)) for name in units]
            for workload, values in rows]
    widths = [max(len(row[i]) for row in [headers] + body)
              for i in range(len(headers))]
    lines = ["  ".join(cell.rjust(width) for cell, width in zip(row, widths))
             for row in [headers] + body]
    return "\n".join(lines)


def layer_table(values: Dict[str, float], units: Dict[str, str]) -> str:
    """One row per per-layer metric: name, value, unit."""
    width = max(len(name) for name in units)
    return "\n".join(f"{name.ljust(width)}  {_fmt(values[name]):>12}  {unit}"
                     for name, unit in units.items())


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4g}"
    return f"{value:.3e}"
