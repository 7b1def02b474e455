"""Cluster benchmark: the hot-key stream through gateway + N shards.

Reuses the exact synthetic workload of ``repro serve bench``
(:func:`repro.serve.bench.build_workload` — every key touched once, then a
popularity-skewed tail) and pushes it through a real cluster: worker
*processes* behind a :class:`~repro.cluster.gateway.ClusterGateway`.  Per
pass it records wall time, throughput and the *exact* cross-shard stats
delta (the merged registry snapshot of every shard), so the
record proves the cluster's two serving guarantees:

* a 100%-warm second pass performs **zero solver calls on any shard**
  (the merged ``enqueued``/``batches`` deltas are sums of non-negative
  per-shard counters, so zero aggregate means zero everywhere);
* the aggregated buckets **partition the forwarded requests exactly**
  (each shard's partition identity survives summation).

On throughput scaling: each shard's cold-pass service rate is bounded by
Little's law at ``max_inflight / (batch fill window + batch service
time)`` — the gateway holds at most ``max_inflight`` requests open
against a shard, and the shard's dispatcher holds a micro-batch open for
``max_wait_ms`` before solving it.  Adding shards multiplies the open
batch windows, which is precisely the horizontal win this benchmark
measures (``scripts/bench_perf.py`` records it as the
``cluster_scaling`` series).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.config import SolveConfig
from repro.cluster.launcher import ClusterHandle, start_cluster
from repro.obs.metrics import histogram_quantile
from repro.serve.bench import _delta, build_workload
from repro.serve.service import ServiceStats

__all__ = ["ClusterBenchPass", "ClusterBenchResult", "run_cluster_bench"]


@dataclass(frozen=True)
class ClusterBenchPass:
    """One pass over the stream: wall time + the exact cross-shard delta."""

    index: int
    seconds: float
    requests: int
    #: Merged per-shard stats delta for this pass (exact partition).
    merged: ServiceStats
    #: Requests the gateway forwarded per shard during this pass.
    forwarded: Dict[str, int]
    #: Per-shard ``enqueued`` delta: solver-bound requests on each shard.
    shard_enqueued: Dict[str, int]
    #: ``{"p50": ..., "p95": ..., "p99": ...}`` in seconds, derived from
    #: the gateway's ``repro_gateway_request_seconds`` histogram *delta*
    #: over this pass; ``None`` when the bench ran without observability.
    latency_quantiles: Optional[Dict[str, float]] = None

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        """Cache-hit percentage of the merged pass."""
        return (100.0 * self.merged.hits / self.merged.requests
                if self.merged.requests > 0 else 0.0)

    @property
    def solver_calls(self) -> int:
        """Requests that reached a solver queue anywhere in the cluster."""
        return self.merged.enqueued

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "seconds": self.seconds,
            "requests": self.requests,
            "requests_per_second": self.requests_per_second,
            "hit_rate": self.hit_rate,
            "solver_calls": self.solver_calls,
            "forwarded": dict(self.forwarded),
            "shard_enqueued": dict(self.shard_enqueued),
            "latency_quantiles": None if self.latency_quantiles is None
            else dict(self.latency_quantiles),
            "merged": self.merged.to_dict(),
        }


@dataclass
class ClusterBenchResult:
    """Outcome of :func:`run_cluster_bench`."""

    n_workers: int
    passes: List[ClusterBenchPass] = field(default_factory=list)
    gateway: Dict[str, int] = field(default_factory=dict)
    #: Resilience counters of the run: deadline expiries, breaker trips,
    #: supervised respawns, quarantined artifacts.  All zeros on a healthy
    #: un-faulted benchmark — which is itself the claim worth tracking.
    resilience: Dict[str, int] = field(default_factory=dict)
    final: Optional[Dict[str, object]] = None

    @property
    def consistent(self) -> bool:
        """Every pass's merged buckets partition its requests exactly."""
        return all(record.merged.consistent for record in self.passes)

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_workers": self.n_workers,
            "consistent": self.consistent,
            "passes": [record.to_dict() for record in self.passes],
            "gateway": dict(self.gateway),
            "resilience": dict(self.resilience),
            "final": self.final,
        }


def _gateway_latency_snapshot(cluster: ClusterHandle):
    """The gateway's request-latency histogram snapshot (``None`` when
    the cluster runs without observability)."""
    obs = getattr(cluster.gateway, "_obs", None)
    if obs is None:
        return None
    return obs.latency_histogram("repro_gateway_request_seconds").snapshot()


def _per_worker(stats: Dict[str, object], key: str) -> Dict[str, int]:
    """Pull one per-shard counter out of a gateway stats payload."""
    values: Dict[str, int] = {}
    for node_id, entry in stats["workers"].items():  # type: ignore[union-attr]
        if key == "forwarded":
            values[node_id] = entry["forwarded"]
        else:
            snapshot = entry.get("stats") or {}
            values[node_id] = snapshot.get(key, 0)
    return values


def run_cluster_bench(*, num_requests: int = 400, num_distinct: int = 320,
                      num_links: int = 4, seed: int = 0, passes: int = 2,
                      strategy: str = "optop", n_workers: int = 2,
                      store_dir: Optional[str] = None,
                      max_inflight: int = 2, max_batch: int = 64,
                      max_wait_ms: float = 20.0, max_queue: int = 10_000,
                      cluster: Optional[ClusterHandle] = None,
                      obs: bool = False,
                      ) -> ClusterBenchResult:
    """Drive the hot-key stream through a cluster ``passes`` times.

    The defaults put each shard in the latency-bound regime described in
    the module docstring (small ``max_inflight``, a real ``max_wait_ms``
    batch window), which is where shard count — not raw CPU — is the
    binding constraint, so the scaling measurement is meaningful even on
    a single-core machine.  Pass a prebuilt ``cluster`` to benchmark an
    externally configured one (its lifecycle then stays the caller's).

    ``obs=True`` (or a prebuilt cluster with observability on) adds
    per-pass ``latency_quantiles`` — p50/p95/p99 seconds computed from
    the gateway latency histogram's delta over the pass.
    """
    config = SolveConfig(compute_nash=False)
    instances, schedule = build_workload(
        num_requests=num_requests, num_distinct=num_distinct,
        num_links=num_links, seed=seed)
    own_cluster = cluster is None
    if own_cluster:
        cluster = start_cluster(
            n_workers=n_workers, store_dir=store_dir,
            max_inflight=max_inflight, max_batch=max_batch,
            max_wait_ms=max_wait_ms, max_queue=max_queue, obs=obs)
    result = ClusterBenchResult(n_workers=len(cluster.workers))
    try:
        before_stats = cluster.stats()
        previous = cluster.merged_stats(refresh=False)
        prev_forwarded = _per_worker(before_stats, "forwarded")
        prev_enqueued = _per_worker(before_stats, "enqueued")
        hist_before = _gateway_latency_snapshot(cluster)
        for pass_index in range(passes):
            start = time.perf_counter()
            futures = [cluster.submit(instances[i], strategy, config=config)
                       for i in schedule]
            for future in futures:
                future.result(timeout=600.0)
            seconds = time.perf_counter() - start
            now_stats = cluster.stats()
            now = cluster.merged_stats(refresh=False)
            forwarded = _per_worker(now_stats, "forwarded")
            enqueued = _per_worker(now_stats, "enqueued")
            quantiles = None
            hist_now = _gateway_latency_snapshot(cluster)
            if hist_now is not None:
                quantiles = {
                    f"p{int(q * 100)}": histogram_quantile(
                        hist_now, q, baseline=hist_before)
                    for q in (0.50, 0.95, 0.99)}
            result.passes.append(ClusterBenchPass(
                index=pass_index, seconds=seconds, requests=len(schedule),
                merged=_delta(previous, now),
                forwarded={node: forwarded[node]
                           - prev_forwarded.get(node, 0)
                           for node in forwarded},
                shard_enqueued={node: enqueued[node]
                                - prev_enqueued.get(node, 0)
                                for node in enqueued},
                latency_quantiles=quantiles))
            previous, prev_forwarded, prev_enqueued = (
                now, forwarded, enqueued)
            hist_before = hist_now
        final = cluster.stats()
        gateway_counters = dict(final["gateway"])  # type: ignore[arg-type]
        merged_final = dict(final["merged"])  # type: ignore[arg-type]
        result.gateway = gateway_counters
        result.resilience = {
            "gateway_timeouts": gateway_counters.get("timeouts", 0),
            "breaker_opens": gateway_counters.get("breaker_opens", 0),
            "breaker_closes": gateway_counters.get("breaker_closes", 0),
            "worker_respawns": gateway_counters.get("worker_respawns", 0),
            "service_timeouts": merged_final.get("timeouts", 0),
            "quarantined": sum(1 for _ in Path(cluster.store_dir).glob(
                "??/*.json.corrupt.*")),
        }
        result.final = final
    finally:
        if own_cluster:
            cluster.shutdown()
    return result
