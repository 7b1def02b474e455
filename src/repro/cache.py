"""Thread-safe LRU cache with exact hit/miss/eviction accounting.

:class:`LRUCache` is the one in-memory cache implementation of the package.
The process-global result cache in :mod:`repro.api.session` and the tier-1
layer of the serving stack (:class:`repro.serve.TieredCache`) are both
instances of it, so every consumer inherits the same guarantees:

* **Thread safety** — every operation (including the counter updates it
  implies) runs under one internal lock, so concurrent callers can never
  observe torn statistics: after any interleaving of ``get``/``put``/
  ``note``, ``hits + misses`` equals exactly the number of recorded lookups.
* **Bounded memory** — at most ``max_entries`` values are retained; the
  least recently used entry is evicted first and counted.
* **Honest counters** — a *hit* is a ``get`` that returned a value (or an
  externally coalesced serve folded in via :meth:`note`); a *miss* is a
  ``get`` that found nothing.  ``put`` never counts.

The counters live in the cache's own metrics registry
(:attr:`LRUCache.metrics`, ``repro_memory_cache_*``), guarded by the cache
lock; :meth:`LRUCache.stats` is a view over it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry, register_series

__all__ = ["LRUCache"]

#: The counters ``clear``/``reset_stats`` zero (``size`` tracks the data).
_RESETTABLE = ("hits", "misses", "evictions")
#: The cache's series: ``(stats() key, metric name, kind, help, labels)``.
SERIES = tuple((key, f"repro_memory_cache_{key}_total", "counter", "", {})
               for key in _RESETTABLE) + tuple(
    (key, f"repro_memory_cache_{key}", "gauge", "", {})
    for key in ("size", "max_entries"))


class LRUCache:
    """A lock-guarded, bounded, least-recently-used mapping.

    Parameters
    ----------
    max_entries:
        Upper bound on retained entries (must be >= 1).  Inserting beyond it
        evicts the least recently used entry and increments the ``evictions``
        counter.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if int(max_entries) < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self._m = register_series(self.metrics, SERIES, self._lock)
        self._m["max_entries"].value = self.max_entries

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (a *hit*) or ``default`` (a *miss*).

        A hit refreshes the entry's recency.  The lookup and its counter
        update are atomic.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._m["misses"].value += 1
                return default
            self._data.move_to_end(key)
            self._m["hits"].value += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but without touching recency or the counters."""
        with self._lock:
            return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self._m["evictions"].value += 1
            self._m["size"].value = len(self._data)

    def note(self, *, hits: int = 0, misses: int = 0) -> None:
        """Fold externally served lookups into the counters.

        Used by callers that satisfy a request *about* this cache without a
        ``get`` — e.g. :func:`repro.api.solve_many` serving an in-batch
        duplicate from the first occurrence's fresh report.  Counting it here
        keeps ``hits + misses == lookups`` exact under concurrency.
        """
        with self._lock:
            self._m["hits"].value += int(hits)
            self._m["misses"].value += int(misses)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> Iterator[Hashable]:
        """A snapshot of the cached keys, LRU first."""
        with self._lock:
            return iter(list(self._data.keys()))

    # ------------------------------------------------------------------ #
    # Maintenance and counters
    # ------------------------------------------------------------------ #
    def clear(self) -> int:
        """Drop every entry and zero the counters; returns entries dropped."""
        with self._lock:
            evicted = len(self._data)
            self._data.clear()
            self._m["size"].value = 0
            self.reset_stats()
            return evicted

    def reset_stats(self) -> None:
        """Zero the counters while keeping every entry (benchmark use:
        measure a fresh pass over a warm cache without rebuilding it)."""
        with self._lock:
            for key in _RESETTABLE:
                self._m[key].value = 0

    def stats(self) -> Dict[str, int]:
        """Atomic view: ``hits``, ``misses``, ``evictions``, ``size``,
        ``max_entries``."""
        with self._lock:
            return {key: metric.value for key, metric in self._m.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging cosmetics
        s = self.stats()
        return (f"LRUCache(size={s['size']}/{s['max_entries']}, "
                f"hits={s['hits']}, misses={s['misses']}, "
                f"evictions={s['evictions']})")
