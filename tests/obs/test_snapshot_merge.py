"""`merge_snapshots`: the one rule the gateway aggregates shards by."""

from __future__ import annotations

import itertools
import json

import pytest

from repro.api import SolveConfig, clear_cache
from repro.instances import random_linear_parallel
from repro.obs.metrics import (MetricsRegistry, merge_snapshots,
                               parse_prometheus, render_prometheus)
from repro.serve import SolveService
from repro.serve.service import ServiceStats
from repro.study.store import ArtifactStore

QUICK = SolveConfig(compute_nash=False)


@pytest.fixture(autouse=True)
def fresh_session_cache():
    clear_cache()
    yield
    clear_cache()


def shard_snapshot(store_dir, seeds, repeats):
    """One shard's registry snapshot after solving ``seeds`` ``repeats``
    times each (the first solve misses, the rest hit tier 1)."""
    with SolveService(store=ArtifactStore(store_dir),
                      max_wait_ms=1.0) as service:
        for seed in seeds:
            instance = random_linear_parallel(3, demand=1.0, seed=seed)
            for _ in range(repeats):
                service.solve(instance, "optop", config=QUICK, timeout=30)
        return service.stats(), service.metrics.snapshot()


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    return [shard_snapshot(root / "a", [1, 2], 3),
            shard_snapshot(root / "b", [3], 2),
            shard_snapshot(root / "c", [4, 5, 6], 1)]


def value(snapshot, name, **labels):
    for sample in snapshot[name]["samples"]:
        if sample["labels"] == labels:
            return sample["value"]
    raise KeyError((name, labels))


def gauge_registry(name, level):
    registry = MetricsRegistry()
    registry.gauge(name).set(level)
    return registry.snapshot()


class TestMergeRules:
    def test_counters_sum(self, shards):
        merged = merge_snapshots(*(snapshot for _, snapshot in shards))
        stats = [stats for stats, _ in shards]
        assert value(merged, "repro_requests_total") == \
            sum(s.requests for s in stats) == 11
        assert value(merged, "repro_cache_hits_total", tier="tier1") == \
            sum(s.tier1_hits for s in stats)
        assert value(merged, "repro_store_writes_total") == 6

    def test_queue_peak_takes_the_max_and_other_gauges_sum(self):
        merged = merge_snapshots(gauge_registry("repro_queue_peak", 3),
                                 gauge_registry("repro_queue_peak", 7),
                                 gauge_registry("repro_queue_peak", 5))
        assert value(merged, "repro_queue_peak") == 7
        merged = merge_snapshots(gauge_registry("repro_pending", 3),
                                 gauge_registry("repro_pending", 4))
        assert value(merged, "repro_pending") == 7

    def test_histograms_sum_bucket_by_bucket(self):
        parts = []
        for observation in (0.001, 0.1, 5.0):
            registry = MetricsRegistry()
            registry.histogram("repro_x_seconds").observe(observation)
            parts.append(registry.snapshot())
        merged = merge_snapshots(*parts)["repro_x_seconds"]["samples"][0]
        assert merged["count"] == 3
        assert merged["sum"] == pytest.approx(5.101)
        assert merged["buckets"][-1] == ["+Inf", 3]

    def test_an_unknown_family_survives_under_its_own_name(self, shards):
        foreign = MetricsRegistry()
        foreign.counter("repro_speculative_solves_total", "from a newer "
                        "build", labels=("kind",)).labels(kind="x").inc(4)
        merged = merge_snapshots(shards[0][1], foreign.snapshot())
        assert value(merged, "repro_speculative_solves_total",
                     kind="x") == 4
        assert merged["repro_speculative_solves_total"]["help"] == \
            "from a newer build"
        assert value(merged, "repro_requests_total") == \
            shards[0][0].requests

    def test_the_partition_holds_after_merging(self, shards):
        merged = ServiceStats.from_snapshot(
            merge_snapshots(*(snapshot for _, snapshot in shards)))
        assert merged.consistent
        assert merged.requests == 11
        assert merged.hits + merged.enqueued == 11
        cache = merged.cache
        assert cache["memory_hits"] + cache["store_hits"] + \
            cache["misses"] == cache["lookups"]

    def test_order_independent(self, shards):
        snapshots = [snapshot for _, snapshot in shards]
        results = [json.dumps(merge_snapshots(*order), sort_keys=True)
                   for order in itertools.permutations(snapshots)]
        assert len(set(results)) == 1

    def test_type_conflict_raises(self):
        counter = MetricsRegistry()
        counter.counter("repro_x").inc()
        with pytest.raises(ValueError, match="counter"):
            merge_snapshots(counter.snapshot(),
                            gauge_registry("repro_x", 1))

    def test_merged_snapshot_renders_and_parses(self, shards):
        merged = merge_snapshots(*(snapshot for _, snapshot in shards))
        parsed = parse_prometheus(render_prometheus(merged))
        assert parsed["repro_requests_total"]["{}"] == 11

    def test_merging_nothing_is_empty(self):
        assert merge_snapshots() == {}
        assert ServiceStats.from_snapshot({}).requests == 0


def test_a_shard_view_equals_its_stats(tmp_path):
    stats, snapshot = shard_snapshot(tmp_path / "s", [7], 2)
    assert ServiceStats.from_snapshot(snapshot) == stats
    assert stats.tier1_hits == 1 and stats.enqueued == 1


def test_shard_snapshot_is_json(tmp_path):
    _, snapshot = shard_snapshot(tmp_path / "s", [8], 1)
    assert json.loads(json.dumps(snapshot)) == snapshot
