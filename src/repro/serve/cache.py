"""Two-tier result cache: in-memory LRU above the on-disk artifact store.

Tier 1 is a thread-safe :class:`repro.cache.LRUCache` (fast, bounded,
process-local); tier 2 is the content-addressed
:class:`repro.study.store.ArtifactStore` (persistent, shared across
processes and with the study pipeline — a report solved by ``repro study
run --store`` is served by the service without any solver work, and vice
versa).

Semantics:

* **Lookup** probes tier 1 first; a tier-2 hit is *promoted* into tier 1 so
  repeated traffic for a hot key never touches the disk again.
* **Write-through**: :meth:`TieredCache.put` lands a fresh report in both
  tiers, so a process restart loses only latency, never results.
* **Per-tier accounting**: the cache keeps its own lock-guarded counters —
  ``memory_hits + store_hits + misses == lookups`` holds exactly under
  concurrency — and additionally exposes the raw counters of both backing
  tiers.  All three live in the cache's metrics registry
  (:attr:`TieredCache.metrics`, which includes the tiers' registries);
  :meth:`TieredCache.stats` is a view over it.

Entries are addressed by what determines the solver output: the instance
digest, the strategy name and the canonical config JSON (the same triple the
session cache and the artifact store already key on).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.config import SolveConfig
from repro.api.registry import REGISTRY
from repro.api.report import SolveReport
from repro.cache import SERIES as MEMORY_SERIES, LRUCache
from repro.exceptions import ModelError
from repro.obs.metrics import MetricsRegistry, register_series, series_values
from repro.study.store import (SERIES as STORE_SERIES, ArtifactStore,
                               artifact_key, storable_strategy)

__all__ = ["TieredCache", "TIER_MEMORY", "TIER_STORE"]

#: Tier labels returned by :meth:`TieredCache.get`.
TIER_MEMORY = "memory"
TIER_STORE = "store"

#: The cache's own series: ``(stats() key, metric name, kind, help,
#: labels)``; the tiers declare theirs next to their classes.
SERIES = (
    ("lookups", "repro_tiered_cache_lookups_total", "counter",
     "Tiered-cache lookups (memory probes + store probes that settled)", {}),
    ("memory_hits", "repro_tiered_cache_hits_total", "counter",
     "Tiered-cache hits, by serving tier", {"tier": TIER_MEMORY}),
    ("store_hits", "repro_tiered_cache_hits_total", "counter",
     "Tiered-cache hits, by serving tier", {"tier": TIER_STORE}),
    ("misses", "repro_tiered_cache_misses_total", "counter",
     "Tiered-cache lookups that missed every tier", {}),
    ("puts", "repro_tiered_cache_puts_total", "counter",
     "Write-through puts into the tiered cache", {}),
    ("store_errors", "repro_tiered_cache_store_errors_total", "counter",
     "Store-tier probes that raised and were treated as misses", {}),
)


class TieredCache:
    """Write-through memory+disk cache for solve reports.

    Parameters
    ----------
    memory:
        The tier-1 LRU; a fresh bounded one is created when omitted.
    store:
        Optional tier-2 :class:`~repro.study.store.ArtifactStore`; without
        it the cache degrades gracefully to a single in-memory tier.
    max_entries:
        Bound of the auto-created tier-1 cache (ignored when ``memory`` is
        given).
    shared_store:
        Mark the store as *shared* between several writers (cluster
        shards, a concurrent study run).  Write-throughs then use
        :meth:`~repro.study.store.ArtifactStore.put_if_absent` — content
        addressing makes every writer's payload identical, so once any
        process has landed an artifact the remaining writers skip the
        disk I/O.
    """

    def __init__(self, *, memory: Optional[LRUCache] = None,
                 store: Optional[ArtifactStore] = None,
                 max_entries: int = 4096,
                 shared_store: bool = False) -> None:
        self.memory = LRUCache(max_entries=max_entries) if memory is None \
            else memory
        self.store = store
        self.shared_store = bool(shared_store)
        self._lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self._m = register_series(self.metrics, SERIES, self._lock)
        self.metrics.include(self.memory.metrics)
        if store is not None:
            self.metrics.include(store.metrics)

    @staticmethod
    def memory_key(digest: str, strategy: str,
                   config: SolveConfig) -> Tuple[str, str, str]:
        """The tier-1 key of one solved cell.

        Mixes in the strategy's registry generation (like the session-layer
        cache) so re-registering a name with a new implementation
        invalidates tier-1 entries instead of serving the old
        implementation's reports.
        """
        return (f"{strategy}@{REGISTRY.generation(strategy)}", digest,
                config.to_json())

    #: Shared storability rule: tier 2 is bypassed for strategies
    #: re-registered in this process, exactly like the study runner.
    _storable = staticmethod(storable_strategy)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, digest: str, strategy: str, config: SolveConfig,
            ) -> Tuple[Optional[SolveReport], Optional[str]]:
        """Look one cell up; returns ``(report, tier)``.

        ``tier`` is :data:`TIER_MEMORY`, :data:`TIER_STORE` (the report was
        promoted into memory) or ``None`` on a full miss.
        """
        report = self.get_memory(digest, strategy, config)
        if report is not None:
            return report, TIER_MEMORY
        stored = self.get_store(digest, strategy, config)
        if stored is not None:
            return stored, TIER_STORE
        return None, None

    def get_memory(self, digest: str, strategy: str, config: SolveConfig,
                   ) -> Optional[SolveReport]:
        """Tier-1-only probe (pure in-memory, no disk I/O).

        A hit completes the logical lookup (counted as ``memory_hits``); a
        miss counts nothing yet — the caller is expected to finish the
        lookup with :meth:`get_store` exactly once, which records either a
        ``store_hits`` or a ``misses`` outcome.  :meth:`get` composes the
        two; callers that must not touch the disk while holding their own
        locks (the serving front-end) split them.
        """
        report = self.memory.get(self.memory_key(digest, strategy, config))
        if report is not None:
            self._count("memory_hits")
        return report

    def get_store(self, digest: str, strategy: str, config: SolveConfig,
                  ) -> Optional[SolveReport]:
        """Tier-2 probe, completing a lookup that missed tier 1.

        A hit is promoted into tier 1 and counted as ``store_hits``;
        anything else counts as a ``misses`` outcome.  A *corrupt*
        artifact is quarantined by the store itself (visible as
        ``stats()["store"]["corrupt"]``) and surfaces here as a plain
        miss, so the write-through of the fresh solve repairs it;
        ``store_errors`` remains as a belt for a store that raises
        anyway.
        """
        if self.store is not None and self._storable(strategy):
            try:
                stored = self.store.get(
                    artifact_key(digest, strategy, config))
            except ModelError:
                # A damaged artifact must not take the service down (or
                # leak out of a lookup): treat it as a miss, count it, and
                # let the write-through replace the bad file.
                with self._lock:
                    self._m["store_errors"].value += 1
                stored = None
            if stored is not None:
                self.memory.put(self.memory_key(digest, strategy, config),
                                stored)
                self._count("store_hits")
                return stored
        self._count("misses")
        return None

    def put(self, digest: str, strategy: str, config: SolveConfig,
            report: SolveReport) -> None:
        """Write-through insert into both tiers.

        Tier 1 is written first, so even when the disk write fails the
        report is served from memory; tier 2 is skipped for re-registered
        strategies (see :meth:`_storable`).
        """
        self.memory.put(self.memory_key(digest, strategy, config), report)
        if self.store is not None and self._storable(strategy):
            key = artifact_key(digest, strategy, config)
            if self.shared_store:
                self.store.put_if_absent(key, report)
            else:
                self.store.put(key, report)
        with self._lock:
            self._m["puts"].value += 1

    def _count(self, outcome: str) -> None:
        # Monotonicity audit: every mutation of the counters happens
        # inside self._lock, and ``lookups`` moves in the same critical
        # section as its outcome bucket — so each counter is monotone
        # non-decreasing under any interleaving and a stats() reader can
        # never observe ``lookups`` ahead of the bucket sum (or behind
        # it).  The only counter writes outside this helper (put's
        # ``puts`` and get_store's ``store_errors``) take the same lock.
        with self._lock:
            self._m["lookups"].value += 1
            self._m[outcome].value += 1

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Atomic tier-level counters plus the raw backing-tier stats:
        the :meth:`view` of :attr:`metrics`.

        ``memory_hits + store_hits + misses == lookups`` always holds for
        the top-level counters of one :class:`TieredCache` handle.  (The
        three sections are snapshotted under three different locks — the
        cache's, the LRU's, the store's — so each section is internally
        exact while cross-section comparisons can be transiently ahead or
        behind by in-flight operations.)
        """
        return self.view(self.metrics.snapshot())

    @staticmethod
    def view(snapshot: Mapping[str, Any]) -> Dict[str, object]:
        """The :meth:`stats` shape of a registry snapshot — one cache's,
        one worker's ``/metrics`` JSON, or a merge of several.  ``store``
        is ``None`` when the snapshot carries no store series."""
        has_store = any(row[1] in snapshot for row in STORE_SERIES)
        return {
            **series_values(snapshot, SERIES),
            "memory": series_values(snapshot, MEMORY_SERIES),
            "store": series_values(snapshot, STORE_SERIES)
            if has_store else None,
        }

    def clear_memory(self) -> int:
        """Drop tier 1 (the artifacts stay); returns entries dropped."""
        return self.memory.clear()

    def reset(self) -> None:
        """Zero every counter — this cache's, tier 1's, and tier 2's —
        while keeping all cached entries.

        The benchmark seam: re-measuring a warm configuration previously
        meant rebuilding the cache (and the store handle) just to start
        from clean counters; ``reset()`` keeps the warmth and drops only
        the accounting.  Each tier resets under its own lock, so the
        per-tier invariants hold before and after.
        """
        with self._lock:
            for metric in self._m.values():
                metric.value = 0
        self.memory.reset_stats()
        if self.store is not None:
            self.store.reset_stats()
