"""Name stability: the families a worker and the gateway expose on
``/metrics`` — name, type, label names and HELP string — are a public
surface.  Dashboards and alerts key on them, so they are pinned here
exactly as a two-worker cluster with observability on exposes them,
supervised or not (the supervisor's own series are not on ``/metrics``).

Spawns real worker processes, so it lives in the slow lane.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.api.config import SolveConfig
from repro.cluster import start_cluster
from repro.instances import figure_4_example, pigou

pytestmark = pytest.mark.slow

#: ``(family, type, label names, help)`` shared by worker and gateway:
#: the service and cache-tier counters (the gateway shows their sum over
#: the shards).
SHARD_FAMILIES = [
    ("repro_batch_failures_total", "counter", [],
     "Solver batches that raised"),
    ("repro_batched_requests_total", "counter", [],
     "Requests executed inside solver batches"),
    ("repro_batches_total", "counter", [], "Solver batches executed"),
    ("repro_cache_hits_total", "counter", ["tier"],
     "Requests served from a cache tier, by tier"),
    ("repro_cache_put_failures_total", "counter", [],
     "Write-through cache puts that raised"),
    ("repro_coalesced_total", "counter", [],
     "Requests folded into an identical in-flight computation"),
    ("repro_enqueued_total", "counter", [],
     "Requests that missed every cache tier and entered the batch queue"),
    ("repro_memory_cache_evictions_total", "counter", [], ""),
    ("repro_memory_cache_hits_total", "counter", [], ""),
    ("repro_memory_cache_max_entries", "gauge", [], ""),
    ("repro_memory_cache_misses_total", "counter", [], ""),
    ("repro_memory_cache_size", "gauge", [], ""),
    ("repro_pending", "gauge", [], "Requests currently queued or executing"),
    ("repro_pool_restarts_total", "counter", [],
     "Process-pool restarts after a broken pool"),
    ("repro_probing", "gauge", [],
     "Requests currently probing the store tier"),
    ("repro_queue_peak", "gauge", [], "High-water mark of the batch queue"),
    ("repro_rejected_total", "counter", [],
     "Requests refused by backpressure (queue full or service closed)"),
    ("repro_requests_total", "counter", [],
     "Requests accepted by the shard's SolveService"),
    ("repro_shutdown_timeouts_total", "counter", [],
     "Requests failed by shutdown before execution"),
    ("repro_store_corrupt_total", "counter", [], ""),
    ("repro_store_hits_total", "counter", [], ""),
    ("repro_store_misses_total", "counter", [], ""),
    ("repro_store_skipped_writes_total", "counter", [], ""),
    ("repro_store_writes_total", "counter", [], ""),
    ("repro_tiered_cache_hits_total", "counter", ["tier"],
     "Tiered-cache hits, by serving tier"),
    ("repro_tiered_cache_lookups_total", "counter", [],
     "Tiered-cache lookups (memory probes + store probes that settled)"),
    ("repro_tiered_cache_misses_total", "counter", [],
     "Tiered-cache lookups that missed every tier"),
    ("repro_tiered_cache_puts_total", "counter", [],
     "Write-through puts into the tiered cache"),
    ("repro_tiered_cache_store_errors_total", "counter", [],
     "Store-tier probes that raised and were treated as misses"),
    ("repro_timeouts_total", "counter", [],
     "Requests failed because their deadline expired before execution"),
    ("repro_worker_restarts_total", "counter", [],
     "Dispatch worker thread restarts"),
]

WORKER_ONLY = [
    ("repro_service_batch_seconds", "histogram", [],
     "Wall time of executed solver batches"),
    ("repro_worker_request_seconds", "histogram", [],
     "Wall time of one worker /solve request."),
]

GATEWAY_ONLY = [
    ("repro_gateway_request_seconds", "histogram", [],
     "End-to-end gateway request wall time, retries included."),
    ("repro_worker_alive", "gauge", ["node"],
     "Worker liveness as seen by the gateway"),
    ("repro_worker_breaker_open", "gauge", ["node"],
     "Whether the node's circuit breaker is open"),
    ("repro_worker_forwarded_total", "counter", ["node"],
     "Requests forwarded to the node"),
    ("repro_worker_respawns_total", "counter", ["node"],
     "Process respawns recorded for the node"),
] + [(f"repro_gateway_{key}_total", "counter", [], "")
     for key in ("breaker_closes", "breaker_opens", "completed", "failures",
                 "overload_retries", "remote_errors", "requests",
                 "reroutes", "timeouts", "unavailable_waits",
                 "worker_respawns")]


def families(url):
    with urllib.request.urlopen(url + "?format=json", timeout=30) as reply:
        snapshot = json.loads(reply.read())
    return sorted(
        (name, family["type"],
         sorted({key for sample in family["samples"]
                 for key in sample["labels"]}),
         family["help"])
        for name, family in snapshot.items())


@pytest.mark.parametrize("supervise", [False, True])
def test_worker_and_gateway_expose_the_pinned_families(supervise):
    config = SolveConfig(compute_nash=False)
    stream = [figure_4_example().with_demand(0.5 + 0.1 * i)
              for i in range(10)] + [pigou()] * 4
    with start_cluster(n_workers=2, http=True, obs=True,
                       supervise=supervise) as cluster:
        cluster.solve_many(stream, "optop", config=config)
        gateway = families(f"http://127.0.0.1:{cluster.http_port}/metrics")
        workers = [families(f"http://{w.host}:{w.port}/metrics")
                   for w in cluster.workers]
    assert gateway == sorted(SHARD_FAMILIES + GATEWAY_ONLY)
    for worker in workers:
        assert worker == sorted(SHARD_FAMILIES + WORKER_ONLY)
