"""repro.obs — unified observability: metrics, tracing, profiling.

Three small, dependency-free pieces with one shared contract — **zero
cost when off**:

* :mod:`repro.obs.metrics` — a thread-safe registry (:class:`Counter`,
  :class:`Gauge`, :class:`Histogram` with exponential latency buckets,
  labeled families) exporting JSON snapshots and the Prometheus text
  format;
* :mod:`repro.obs.tracing` — deterministic request tracing
  (:class:`Tracer`/:class:`Span`, ids from request digest + sequence,
  injectable clock, bounded ring buffer, Chrome ``trace_event`` export)
  propagated across processes via the ``x-repro-trace-id`` header;
* :mod:`repro.obs.profiling` — opt-in per-phase kernel timings behind
  ``SolveConfig(profile=True)``, landing in
  ``SolveReport.metadata["profile"]``.

:class:`Observability` bundles one registry + one tracer for a process
(a worker, the gateway); components accept it as an optional ``obs``
argument whose absence costs exactly one ``is None`` check on the hot
path.  The registry is also where the serving counters live: the
service, its cache tiers, the gateway and the supervisor increment
registry metrics directly (on the handle's registry when one is given,
on a private one otherwise), and their ``stats()`` methods are views.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry,
                               histogram_quantile, parse_prometheus)
from repro.obs.profiling import PhaseRecorder, phase, profiled
from repro.obs.tracing import Span, Tracer, trace_id_for

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PhaseRecorder",
    "Span",
    "Tracer",
    "histogram_quantile",
    "parse_prometheus",
    "phase",
    "profiled",
    "trace_id_for",
]


class Observability:
    """One process's observability handle: a registry plus a tracer.

    Parameters
    ----------
    service:
        Identity stamped on spans and useful as an exposition label
        (``"gateway"``, ``"worker-<pid>"``).
    capacity:
        Span ring-buffer bound (oldest evicted first).
    clock:
        Injectable monotonic clock shared by the tracer; defaults to
        :func:`time.perf_counter`.  Tests pass a fake for exact timings.
    """

    def __init__(self, *, service: str, capacity: int = 4096,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.service = service
        self.registry = MetricsRegistry()
        self.tracer = Tracer(service=service, capacity=capacity,
                             clock=clock or time.perf_counter)

    def latency_histogram(self, name: str, help_text: str = "") -> Histogram:
        """A latency histogram on this process's registry with the fixed
        exponential bucket layout (get-or-create)."""
        return self.registry.histogram(name, help_text,
                                       buckets=DEFAULT_LATENCY_BUCKETS)

    def snapshot(self) -> Dict[str, Any]:
        """JSON snapshot of the registry."""
        return self.registry.snapshot()
