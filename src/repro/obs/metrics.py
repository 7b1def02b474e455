"""Dependency-free, thread-safe metrics primitives.

This module is the quantitative half of :mod:`repro.obs` and the one
place the platform's counters live: a small Prometheus-flavoured
registry (:class:`Counter`, :class:`Gauge`, :class:`Histogram`, labeled
families) that the serving components increment directly.  Their
``stats()`` methods are read-only views over it.  Export surfaces:

* :meth:`MetricsRegistry.snapshot` — a JSON-compatible dict, embedded in
  chaos reports and served by ``/metrics?format=json``;
* :func:`render_prometheus` — the text exposition format (version
  0.0.4) of any snapshot, served by ``/metrics`` on workers and the
  gateway;
* :func:`merge_snapshots` — the one cross-process aggregation rule the
  cluster gateway applies to its shards' snapshots.

Design constraints, in order:

1. **Exactness** — counters are plain Python numbers under a lock; no
   sampling, no floating drift for integral series.
2. **One lock per increment** — a metric registered with ``lock=``
   shares its owner's lock: the owner updates ``value`` inside the
   critical sections it already holds, every other writer goes through
   :meth:`Counter.inc` and friends, which take the same lock.
   Histograms keep their own lock, so a snapshot never sees a torn one.
3. **Declared once** — a component lists its series as ``(stats key,
   metric name, kind, help, labels)`` rows, bound by
   :func:`register_series` and read back out of a snapshot by
   :func:`series_values`.
"""

from __future__ import annotations

import copy
import json
import math
import threading
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "merge_snapshots",
    "parse_prometheus",
    "register_series",
    "render_prometheus",
    "series_values",
]

#: Fixed exponential latency buckets (seconds): 0.5 ms doubling up to
#: ~16.4 s, 16 finite bounds + implicit +Inf.  Chosen to straddle the
#: serving stack's observed range — sub-millisecond tier-1 hits up to
#: multi-second cold cluster solves — with constant relative error.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    0.0005 * 2.0 ** i for i in range(16))

#: Anything usable as ``with lock:`` (``threading.Lock``/``RLock``).
LockLike = Any


def _format_value(value: float) -> str:
    """Render a sample exactly: integral values without a decimal point."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label(str(labels[key]))}"'
                     for key in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically non-decreasing sample (``*_total`` series).

    ``inc`` rejects negative amounts: monotonicity is the point — it is
    what makes rate computations and the bench/CI deltas meaningful.
    The owner of a counter registered with ``lock=`` may instead add to
    ``value`` while it holds that lock (and zero it on an explicit
    counter reset).
    """

    __slots__ = ("_lock", "value")

    def __init__(self, lock: Optional[LockLike] = None) -> None:
        self._lock = threading.Lock() if lock is None else lock
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotonic; cannot add {amount!r}")
        with self._lock:
            self.value += amount


class Gauge:
    """A sample that can go both ways (queue depths, breaker state)."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock: Optional[LockLike] = None) -> None:
        self._lock = threading.Lock() if lock is None else lock
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Fixed-bucket histogram with exact ``sum``/``count`` accounting.

    Buckets are *upper bounds* of half-open intervals, cumulative in the
    exported form (Prometheus convention, ``le`` labels, implicit
    ``+Inf``).  ``observe`` and ``snapshot`` are each atomic, so a
    snapshot is always internally consistent.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, "
                             f"got {buckets!r}")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self._sum: float = 0.0
        self._count: int = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan: len(bounds) is ~16 and observations on the serving
        # path are rare compared to the work they measure.
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Dict[str, Any]:
        """Atomic ``{"buckets": [[le, cumulative], ...], "sum", "count"}``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = 0
            buckets: List[List[float]] = []
            for bound, count in zip(self.bounds, counts):
                acc += count
                buckets.append([bound, acc])
            buckets.append([math.inf, total])
            return {"buckets": buckets, "sum": self._sum, "count": total}

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by in-bucket interpolation."""
        return histogram_quantile(self.snapshot(), q)


def histogram_quantile(snapshot: Mapping[str, Any], q: float,
                       *, baseline: Optional[Mapping[str, Any]] = None
                       ) -> float:
    """Estimate a quantile from a :meth:`Histogram.snapshot` dict.

    With ``baseline`` (an earlier snapshot of the *same* histogram) the
    quantile is computed over the delta — how the cluster bench derives
    per-pass p50/p95/p99 from one cumulative histogram.  Returns ``nan``
    when the (delta) population is empty.  Standard Prometheus-style
    linear interpolation inside the containing bucket; the overflow
    bucket clamps to its lower bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    buckets = [list(pair) for pair in snapshot["buckets"]]
    count = int(snapshot["count"])
    if baseline is not None:
        base = {pair[0]: pair[1] for pair in baseline["buckets"]}
        for pair in buckets:
            pair[1] -= base.get(pair[0], 0)
        count -= int(baseline["count"])
    if count <= 0:
        return math.nan
    rank = q * count
    previous_bound, previous_cum = 0.0, 0
    for bound, cumulative in buckets:
        if cumulative >= rank:
            if math.isinf(bound):
                return previous_bound
            in_bucket = cumulative - previous_cum
            if in_bucket <= 0:  # pragma: no cover - defensive
                return bound
            fraction = (rank - previous_cum) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cumulative
    return previous_bound  # pragma: no cover - count>0 guarantees a hit


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A labeled family: one metric instance per label-value combination.

    ``owner_lock`` (counters and gauges only) is shared by every child:
    the family belongs to the component holding that lock.
    """

    __slots__ = ("name", "kind", "help", "label_names", "owner_lock",
                 "_children", "_lock", "_buckets")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None,
                 owner_lock: Optional[LockLike] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.owner_lock = owner_lock
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()
        self._buckets = buckets

    def labels(self, **labels: str) -> Any:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}")
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._buckets
                                      or DEFAULT_LATENCY_BUCKETS)
                else:
                    child = _TYPES[self.kind](self.owner_lock)
                self._children[key] = child
            return child

    def samples(self) -> List[Tuple[Dict[str, str], Any]]:
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.label_names, key)), child)
                for key, child in items]


class MetricsRegistry:
    """A named collection of metrics with JSON and Prometheus exports.

    ``counter``/``gauge``/``histogram`` are get-or-create and idempotent;
    re-registering a name with a different type or label set raises, and
    so does claiming a family another owner's lock already guards.  With
    ``labels=()`` (the default) the bare metric is returned; with label
    names, a family whose ``.labels(...)`` yields the children.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def _family(self, name: str, kind: str, help_text: str,
                labels: Iterable[str],
                buckets: Optional[Sequence[float]] = None,
                lock: Optional[LockLike] = None) -> _Family:
        label_names = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, label_names, buckets,
                                 lock)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names!r}, requested "
                    f"{kind}{label_names!r}")
            elif lock is not None and family.owner_lock is not lock:
                raise ValueError(
                    f"metric {name!r} is already owned by another "
                    f"component; give each owner its own registry")
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = (),
                lock: Optional[LockLike] = None) -> Any:
        family = self._family(name, "counter", help_text, labels, lock=lock)
        return family if family.label_names else family.labels()

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = (),
              lock: Optional[LockLike] = None) -> Any:
        family = self._family(name, "gauge", help_text, labels, lock=lock)
        return family if family.label_names else family.labels()

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Any:
        family = self._family(name, "histogram", help_text, labels, buckets)
        return family if family.label_names else family.labels()

    def include(self, other: "MetricsRegistry") -> None:
        """Serve every family ``other`` holds through this registry too.

        The family objects are shared, not copied: a component keeps its
        metrics in its own registry, and the registry of the process that
        exports them reads the very same values.  Including a registry
        twice (or into itself) is a no-op; two distinct families under
        one name raise.
        """
        if other is self:
            return
        with other._lock:
            families = dict(other._families)
        with self._lock:
            for name, family in families.items():
                if self._families.setdefault(name, family) is not family:
                    raise ValueError(
                        f"metric {name!r} is registered by two components")

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump: ``{name: {type, help, samples: [...]}}``.

        Each sample is ``{"labels": {...}, "value": ...}`` (counters and
        gauges) or ``{"labels": {...}, **histogram_snapshot}``; the
        ``+Inf`` histogram bound is serialized as the string ``"+Inf"``.
        """
        with self._lock:
            families = sorted(self._families.items())
        out: Dict[str, Any] = {}
        unread: Dict[int, Tuple[LockLike, List[Tuple[Dict, Any]]]] = {}
        for name, family in families:
            rows = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    data = child.snapshot()
                    data["buckets"] = [
                        ["+Inf" if math.isinf(bound) else bound, cum]
                        for bound, cum in data["buckets"]]
                    rows.append({"labels": labels, **data})
                else:
                    rows.append({"labels": labels})
                    unread.setdefault(id(child._lock), (child._lock, []))[
                        1].append((rows[-1], child))
            out[name] = {"type": family.kind, "help": family.help,
                         "samples": rows}
        # Read the counters and gauges one lock at a time, all samples
        # sharing a lock in one acquisition, so a snapshot taken
        # mid-traffic keeps each owner's invariants (the request
        # partition of a service, say).
        for lock, group in unread.values():
            with lock:
                for row, child in group:
                    row["value"] = child.value
        return out

    def render_prometheus(self) -> str:
        """Text exposition (format 0.0.4) of :meth:`snapshot`."""
        return render_prometheus(self.snapshot())

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """Text exposition (format 0.0.4) of a registry snapshot — one
    process's, or a :func:`merge_snapshots` of several — with
    deterministic ordering."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("help"):
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in sorted(family["samples"],
                             key=lambda item: sorted(item["labels"].items())):
            labels = sample["labels"]
            if family["type"] != "histogram":
                lines.append(f"{name}{_render_labels(labels)} "
                             f"{_format_value(sample['value'])}")
                continue
            for bound, cumulative in sample["buckets"]:
                le = bound if isinstance(bound, str) else _format_value(bound)
                lines.append(f"{name}_bucket"
                             f"{_render_labels({**labels, 'le': le})} "
                             f"{cumulative}")
            lines.append(f"{name}_sum{_render_labels(labels)} "
                         f"{_format_value(sample['sum'])}")
            lines.append(f"{name}_count{_render_labels(labels)} "
                         f"{sample['count']}")
    return "\n".join(lines) + "\n"


#: The one gauge rule of :func:`merge_snapshots`: gauges whose name ends
#: in this suffix are high-water marks and take the max across
#: snapshots; every other gauge (in-flight work, cache sizes and bounds)
#: is additive and sums.
PEAK_SUFFIX = "_peak"


def merge_snapshots(*snapshots: Mapping[str, Any]) -> Dict[str, Any]:
    """Aggregate registry snapshots from several processes into one.

    Samples match by family name and label set.  Counters and histograms
    sum (the fixed bucket layout makes cumulative bucket counts add), so
    any exact identity between counters — such as the request partition
    of :class:`~repro.serve.ServiceStats` — survives the merge.  Gauges
    sum, except high-water marks (see :data:`PEAK_SUFFIX`), which take
    the max.  A family only some snapshots carry passes through under its
    own name: the merge needs no knowledge of what the families mean, so
    shards running different builds still aggregate losslessly.  The
    result is independent of argument order.
    """
    merged: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, family in snapshot.items():
            target = merged.setdefault(name, {
                "type": family["type"], "help": family.get("help", ""),
                "samples": {}})
            if target["type"] != family["type"]:
                raise ValueError(f"metric {name!r} is a {target['type']} in "
                                 f"one snapshot and a {family['type']} in "
                                 f"another")
            peak = family["type"] == "gauge" and name.endswith(PEAK_SUFFIX)
            for sample in family["samples"]:
                key = json.dumps(sample["labels"], sort_keys=True)
                into = target["samples"].get(key)
                if into is None:
                    target["samples"][key] = copy.deepcopy(dict(sample))
                elif family["type"] == "histogram":
                    for pair, (_, cumulative) in zip(into["buckets"],
                                                     sample["buckets"]):
                        pair[1] += cumulative
                    into["sum"] += sample["sum"]
                    into["count"] += sample["count"]
                elif peak:
                    into["value"] = max(into["value"], sample["value"])
                else:
                    into["value"] += sample["value"]
    for family in merged.values():
        family["samples"] = [family["samples"][key]
                             for key in sorted(family["samples"])]
    return {name: merged[name] for name in sorted(merged)}


#: One declared series: ``(stats key, metric name, kind, help, labels)``.
Series = Tuple[str, str, str, str, Mapping[str, str]]


def register_series(registry: MetricsRegistry, series: Sequence[Series],
                    lock: Optional[LockLike] = None,
                    **labels: str) -> Dict[str, Any]:
    """Bind declared rows to live metrics; returns ``{stats key: metric}``.

    ``lock`` makes the calling component the owner of every counter and
    gauge in the rows (see :class:`Counter`); extra ``labels`` are added
    to every row (the gateway's per-node ``node=...``).
    """
    bound: Dict[str, Any] = {}
    for key, name, kind, help_text, row_labels in series:
        values = {**row_labels, **labels}
        family = registry._family(name, kind, help_text, tuple(values),
                                  lock=lock)
        bound[key] = family.labels(**values)
    return bound


def series_values(snapshot: Mapping[str, Any],
                  series: Sequence[Series]) -> Dict[str, float]:
    """Read declared rows back out of a snapshot (0 where absent).

    The inverse of :func:`register_series` for a snapshot — one
    process's, or a :func:`merge_snapshots` of several.
    """
    out: Dict[str, float] = {}
    for key, name, _kind, _help, labels in series:
        samples = (snapshot.get(name) or {}).get("samples", ())
        out[key] = next((sample["value"] for sample in samples
                         if sample["labels"] == labels), 0)
    return out


def parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """Parse a text exposition back into ``{series: {labels_json: value}}``.

    The inverse of :meth:`MetricsRegistry.render_prometheus`, used by the
    CI cluster-smoke scrape and the equivalence tests.  ``series`` is the
    sample name (including ``_bucket``/``_sum``/``_count`` suffixes);
    keys of the inner dict are canonical JSON of the label dict.
    """
    out: Dict[str, Dict[str, float]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            sample, value_text = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        labels: Dict[str, str] = {}
        name = sample
        if sample.endswith("}"):
            brace = sample.index("{")
            name, inner = sample[:brace], sample[brace + 1:-1]
            for part in filter(None, _split_labels(inner)):
                key, _, quoted = part.partition("=")
                if not (quoted.startswith('"') and quoted.endswith('"')):
                    raise ValueError(f"bad label in line: {raw!r}")
                labels[key] = quoted[1:-1].replace(r"\n", "\n") \
                    .replace(r"\"", '"').replace(r"\\", "\\")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"bad sample value in line: {raw!r}")
        out.setdefault(name, {})[json.dumps(labels, sort_keys=True)] = value
    return out


def _split_labels(inner: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for char in inner:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    parts.append("".join(current))
    return parts
