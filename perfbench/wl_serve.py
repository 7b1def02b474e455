"""``serve_mixed``: open-loop requests through a one-worker cluster.

One generator thread sends requests on a seeded Poisson schedule into
``start_cluster(n_workers=1)`` at its shipped defaults, over a fresh store.
About 80% of the requests pick from a Zipf-skewed hot catalogue that set-up
pre-warms (reads); the rest are never-seen instances (a solve plus a store
write).  Instances are small parallel-link systems (m in 4..32), so the
gateway, wire, worker queue and cache dominate and the kernels cost little.

Latency is timed from each request's *due* send time, so a stall also
delays every request scheduled behind it; how late the generator ran is
reported separately.  A failed, rejected or timed-out request counts as a
miss against the latency limit.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

import checker
from harness import Outcome, Tally, Tracer, peak_rss_mb, percentile, \
    timed_setup, trace_honesty

IMPORTS = ("repro.api", "repro.instances", "repro.cluster")

CATALOGUE = 64
ZIPF_EXPONENT = 1.1
COLD_SHARE = 0.2
#: Goodput ladder: rungs 5% apart from 10 req/s.  A probe holds one rung
#: for PROBE_SECONDS (at most PROBE_MAX_REQUESTS requests, at least
#: PROBE_MIN_REQUESTS).  The search gallops from RATE_HIGH in steps of
#: GALLOP rungs, then bisects.
LADDER = tuple(10.0 * 1.05 ** k for k in range(85))
PROBE_SECONDS = 2.5
PROBE_MIN_REQUESTS = 25
PROBE_MAX_REQUESTS = 600
GALLOP = 4
MAX_PROBES = 6
#: Saturation burst: this many requests submitted back to back; the cluster
#: drains them at its capacity.
BURST_REQUESTS = 900
#: Offered rates, pinned: about 25% and 60% of the seed commit's capacity on
#: this mix (about 250 req/s through one worker on an idle 2-core host).
#: Each is held for a third of ``--seconds``.  RATE_HIGH is a ladder rung,
#: so its phase is also the ladder's first probe.
RATE_LOW = 60.0
HIGH_RUNG = 55
RATE_HIGH = LADDER[HIGH_RUNG]  # 146.0 req/s
LATENCY_LIMIT_MS = 50.0
MISS_BUDGET = 0.01
#: A rung's backlog grows when the requests in flight at send time average
#: this many more over its last quarter than over its first.
BACKLOG_GROWTH = 10.0
#: Responses compared with an in-process solve after the timed phases.
SAMPLE = 64
DRAIN_TIMEOUT_S = 60.0
TRACE_REQUESTS = 400


def _instance(I, rng: np.random.Generator):
    m = int(rng.integers(4, 33))
    demand = float(math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
    seed = int(rng.integers(2**31 - 1))
    if rng.uniform() < 0.5:
        return I.random_mixed_parallel(m, demand, seed=seed)
    return I.random_linear_parallel(m, demand, seed=seed)


@dataclass
class Inputs:
    hot: list
    #: Per request, in send order: (is_cold, instance).
    requests: List[Tuple[bool, object]]
    #: Unit-rate exponential gaps; a phase at rate r sends at gap / r.
    gaps: np.ndarray


def build_inputs(I, seed: int, count: int) -> Inputs:
    rng = np.random.default_rng([seed, 0x5E7])
    hot = [_instance(I, rng) for _ in range(CATALOGUE)]
    weights = 1.0 / np.arange(1, CATALOGUE + 1) ** ZIPF_EXPONENT
    picks = rng.choice(CATALOGUE, size=count, p=weights / weights.sum())
    cold = rng.uniform(size=count) < COLD_SHARE
    requests = [(True, _instance(I, rng)) if c else (False, hot[int(p)])
                for c, p in zip(cold, picks)]
    return Inputs(hot, requests, rng.exponential(1.0, size=count))


def phase_sizes(seconds: float) -> Tuple[int, int]:
    """Requests in the low- and high-rate phases."""
    return (int(round(RATE_LOW * seconds / 3)),
            int(round(RATE_HIGH * seconds / 3)))


def probe_size(rate: float) -> int:
    return int(min(PROBE_MAX_REQUESTS,
                   max(PROBE_MIN_REQUESTS, round(rate * PROBE_SECONDS))))


def total_requests(seconds: float) -> int:
    return (sum(phase_sizes(seconds)) + (MAX_PROBES - 1) * PROBE_MAX_REQUESTS
            + BURST_REQUESTS)


@dataclass
class Phase:
    rate: float
    latency_ms: np.ndarray     # from due time; NaN where the request failed
    ok: np.ndarray
    cold: np.ndarray
    lag_ms: np.ndarray
    inflight: np.ndarray       # requests in flight when each one was sent
    requests: list
    futures: list

    @property
    def misses(self) -> float:
        late = ~self.ok | (np.nan_to_num(self.latency_ms, nan=np.inf)
                           > LATENCY_LIMIT_MS)
        return float(late.mean())

    def p(self, q: float, mask: Optional[np.ndarray] = None) -> float:
        keep = self.ok if mask is None else self.ok & mask
        return percentile(self.latency_ms[keep], q)

    @property
    def backlog_grows(self) -> bool:
        quarter = max(1, len(self.inflight) // 4)
        return float(self.inflight[-quarter:].mean()
                     - self.inflight[:quarter].mean()) > BACKLOG_GROWTH

    @property
    def passes(self) -> bool:
        return (self.misses <= MISS_BUDGET and self.ok.mean() >= 0.99
                and not self.backlog_grows)


def fire(cluster, requests, gaps: np.ndarray, rate: float) -> Phase:
    """Send ``requests`` on the Poisson schedule ``gaps / rate`` and wait
    until every one has resolved."""
    n = len(requests)
    latency = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    lag = np.zeros(n)
    inflight = np.zeros(n, dtype=int)
    lock = threading.Lock()
    pending = [0]

    def done(i: int, due: float, future) -> None:
        end = time.perf_counter()
        good = not future.cancelled() and future.exception() is None
        with lock:
            pending[0] -= 1
        latency[i] = 1e3 * (end - due)
        ok[i] = good

    futures = []
    origin = time.perf_counter() + 0.005
    due_times = origin + np.cumsum(gaps[:n]) / rate
    for i, (_, inst) in enumerate(requests):
        due = float(due_times[i])
        now = time.perf_counter()
        while now < due:
            time.sleep(min(due - now, 0.001))
            now = time.perf_counter()
        lag[i] = 1e3 * (now - due)
        with lock:
            pending[0] += 1
            inflight[i] = pending[0]
        future = cluster.submit(inst, "optop")
        future.add_done_callback(partial(done, i, due))
        futures.append(future)
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for future in futures:
        try:
            future.exception(timeout=max(0.0, deadline - time.monotonic()))
        except Exception:  # noqa: BLE001 - timed out: stays a failure
            pass
    # Callbacks run on the cluster's loop thread; wait for the last ones.
    while True:
        with lock:
            if pending[0] <= 0 or time.monotonic() > deadline:
                break
        time.sleep(0.001)
    cold = np.array([c for c, _ in requests], dtype=bool)
    return Phase(rate, latency, ok & ~np.isnan(latency), cold, lag,
                 inflight, requests, futures)


def burst(cluster, requests) -> Tuple[float, int]:
    """Submit ``requests`` back to back and wait for all of them; returns
    (completed requests per second, failures).  The backlog keeps the
    cluster saturated, so the rate is its capacity on this mix, and a stall
    only delays the finish instead of failing a latency limit."""
    start = time.perf_counter()
    futures = [cluster.submit(inst, "optop") for _, inst in requests]
    failed = 0
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    for future in futures:
        try:
            future.result(timeout=max(0.0, deadline - time.monotonic()))
        except Exception:  # noqa: BLE001 - a failed or timed-out request
            failed += 1
    elapsed = time.perf_counter() - start
    return (len(futures) - failed) / elapsed, failed


class Stream:
    """Hands out consecutive slices of the seeded request sequence."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.next = 0

    def take(self, count: int):
        start, self.next = self.next, self.next + count
        return (self.inputs.requests[start:self.next],
                self.inputs.gaps[start:self.next])


def goodput(cluster, stream: Stream, high: Phase, phases: List[Phase]) -> float:
    """Highest ladder rate that passes, found by galloping from RATE_HIGH
    (whose phase ``high`` is the first probe) and bisecting; every further
    probe is kept in ``phases``."""
    results = {HIGH_RUNG: high.passes}

    def probe(k: int) -> bool:
        if k not in results:
            requests, gaps = stream.take(probe_size(LADDER[k]))
            phase = fire(cluster, requests, gaps, LADDER[k])
            phases.append(phase)
            results[k] = phase.passes
        return results[k]

    start = HIGH_RUNG
    top = len(LADDER) - 1
    if probe(start):
        good, step = start, GALLOP
        bad = None
        while len(results) < MAX_PROBES:
            k = min(good + step, top)
            if probe(k):
                good = k
                if k == top:
                    break
                step *= 2
            else:
                bad = k
                break
    else:
        bad, step = start, GALLOP
        good = None
        while len(results) < MAX_PROBES and bad > 0:
            k = max(bad - step, 0)
            if probe(k):
                good = k
                break
            bad, step = k, step * 2
        if good is None:
            return LADDER[0] if probe(0) else 0.0
    while bad is not None and bad - good > 1 and len(results) < MAX_PROBES:
        mid = (good + bad) // 2
        if probe(mid):
            good = mid
        else:
            bad = mid
    return LADDER[good]


def _start(workdir, tag: str, inputs: Inputs, obs: bool = False):
    from repro.cluster import start_cluster

    cluster = start_cluster(n_workers=1, store_dir=str(workdir / f"store-{tag}"),
                            obs=obs)
    try:
        cluster.solve_many(inputs.hot, "optop")
    except BaseException:
        cluster.shutdown(drain=False)
        raise
    return cluster


def _check_sample(seed: int, phases: List[Phase], tally: Tally) -> None:
    """Check a seeded sample of served reports and compare each with an
    in-process solve of the instance that was sent."""
    from repro.api import solve

    served = [(phase, i) for phase in phases for i in range(len(phase.futures))
              if phase.ok[i]]
    rng = np.random.default_rng([seed, 0xC4EC])
    for j in rng.choice(len(served), size=min(SAMPLE, len(served)),
                        replace=False):
        phase, i = served[int(j)]
        report = phase.futures[i].result()
        local = solve(phase.requests[i][1], "optop")
        tally.checked(f"sample {j}", checker.check_parallel(
            report, price_of_optimum=True)
            + checker.check_same_report(report, local, check="served_vs_local"))


def run(seed: int, seconds: float, setup_reps: int, import_s: float,
        workdir) -> Outcome:
    from repro import instances as I

    reps = iter(range(setup_reps))

    def setup():
        rep = next(reps)
        inputs = build_inputs(I, seed, total_requests(seconds))
        cluster = _start(workdir, str(rep), inputs)
        if rep < setup_reps - 1:
            cluster.shutdown()
            return None
        return inputs, cluster

    (inputs, cluster), build_s = timed_setup(setup, setup_reps)
    tally = Tally()
    try:
        stream = Stream(inputs)
        n_low, n_high = phase_sizes(seconds)
        low = fire(cluster, *stream.take(n_low), RATE_LOW)
        high = fire(cluster, *stream.take(n_high), RATE_HIGH)
        ladder: List[Phase] = []
        good = goodput(cluster, stream, high, ladder)
        capacity, burst_failed = burst(cluster, stream.take(BURST_REQUESTS)[0])
        phases = [low, high] + ladder
        for phase in phases:
            tally.attempted += len(phase.ok)
            tally.failed += int((~phase.ok).sum())
        tally.attempted += BURST_REQUESTS
        tally.failed += burst_failed
        _check_sample(seed, phases, tally)
    finally:
        cluster.shutdown()
    named = {
        "setup_s": import_s + build_s,
        "peak_rss_mb": peak_rss_mb(children=True),
        "p50_ms_low": low.p(50), "p99_ms_low": low.p(99),
        "p50_ms_high": high.p(50), "p99_ms_high": high.p(99),
        "goodput_rps": good,
    }
    # Saturation throughput, not goodput, whose 1%-over-50-ms test flips on
    # single host stalls; and p90 at the high rate, since p99 at these phase
    # lengths has fewer than ten samples beyond it.
    return Outcome(
        tally,
        metrics={"setup_s": named["setup_s"],
                 "peak_rss_mb": named["peak_rss_mb"],
                 "throughput_per_s": capacity,
                 "latency_ms": high.p(90)},
        named=named,
        details={
            "gen_lag_ms_p99": percentile(np.concatenate(
                [p.lag_ms for p in phases]), 99),
            "ladder": [{"rate": round(p.rate, 2), "passes": p.passes,
                        "misses": p.misses, "p99_ms": p.p(99),
                        "backlog_grows": p.backlog_grows} for p in ladder],
            "capacity_rps": capacity,
            "requests_low": len(low.ok), "requests_high": len(high.ok),
            "p90_ms_high": high.p(90),
            "hot_p50_ms_low": low.p(50, ~low.cold),
            "cold_p50_ms_low": low.p(50, low.cold),
        })


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def _import_spans(tracer: Tracer, events: list, since_us: float) -> dict:
    """Fold the cluster's own spans (``gateway.request`` > ``worker.solve``
    > ``service.batch``) into ``tracer``, keeping requests sent after
    ``since_us``; returns per-request queue waits and the batch spans."""
    by_trace: dict = {}
    for ev in events:
        by_trace.setdefault(ev["args"].get("trace_id"), []).append(ev)
    waits, batches = [], set()
    for trace_id, evs in by_trace.items():
        gateway = [e for e in evs if e["name"] == "gateway.request"]
        if len(gateway) != 1 or gateway[0]["ts"] < since_us:
            continue

        def add(ev, parent):
            return tracer.add(ev["name"], ev["ts"] / 1e6,
                              (ev["ts"] + ev["dur"]) / 1e6, trace_id, parent)

        root = add(gateway[0], None)
        for solve_ev in (e for e in evs if e["name"] == "worker.solve"):
            node = add(solve_ev, root)
            for batch in (e for e in evs if e["name"] == "service.batch"):
                add(batch, node)
                batches.add((batch["ts"], batch["dur"]))
                waits.append((batch["ts"] - solve_ev["ts"]) / 1e3)
    return {"waits": waits, "batches": batches}


def trace(seed: int, seconds: float, workdir, out_path) -> Outcome:
    """Per-layer figures from one low-rate phase sent twice, each time to a
    fresh cluster: once untraced, once with the cluster's own spans on
    (``start_cluster(obs=True)``), which are folded into the benchmark's
    trace.  Wire encode and decode are timed on the same requests."""
    from repro import instances as I
    from repro.api import SolveConfig
    from repro.cluster import protocol

    runs = {}
    for tag, obs in (("untraced", False), ("traced", True)):
        inputs = build_inputs(I, seed, TRACE_REQUESTS)
        cluster = _start(workdir, tag, inputs, obs=obs)
        try:
            before = cluster.stats()
            since_us = time.perf_counter() * 1e6
            phase = fire(cluster, inputs.requests, inputs.gaps, RATE_LOW)
            stats = cluster.stats()
            events = cluster.trace()["traceEvents"] if obs else []
        finally:
            cluster.shutdown()
        runs[tag] = (phase, before, stats, events, since_us)

    phase, before, stats, events, since_us = runs["traced"]
    tracer = Tracer()
    folded = _import_spans(tracer, events, since_us)
    tracer.dump(out_path)
    tally = Tally(attempted=len(phase.ok), failed=int((~phase.ok).sum()))

    config = SolveConfig()
    encode = decode = build_json = 0.0
    req_bytes = resp_bytes = 0
    fresh = build_inputs(I, seed, TRACE_REQUESTS)
    for (_, inst), future, good in zip(fresh.requests, phase.futures, phase.ok):
        if not good:
            continue
        start = time.perf_counter()
        body, _ = protocol.encode_solve_request(inst, "optop", config)
        encode += time.perf_counter() - start
        req_bytes += len(body)
        start = time.perf_counter()
        payload = protocol.encode_report(future.result())
        build_json += time.perf_counter() - start
        resp_bytes += len(payload)
        start = time.perf_counter()
        protocol.decode_report(payload)
        decode += time.perf_counter() - start
    n = int(phase.ok.sum())
    merged = {key: value - before["merged"].get(key, 0)
              for key, value in stats["merged"].items()
              if isinstance(value, (int, float)) and key != "queue_peak"}
    requests = max(1, merged["requests"])
    gateway = {key: value - before["gateway"].get(key, 0)
               for key, value in stats["gateway"].items()}
    forwarded = sum(w["forwarded"] for w in stats["workers"].values()) \
        - sum(w["forwarded"] for w in before["workers"].values())
    self_t = tracer.self_times()
    layers = {
        "client.gen_lag_ms_p99": percentile(phase.lag_ms, 99),
        "client.hot_p50_ms": phase.p(50, ~phase.cold),
        "client.cold_p50_ms": phase.p(50, phase.cold),
        "cluster.encode_ms": 1e3 * encode / n,
        "cluster.decode_ms": 1e3 * decode / n,
        "cluster.request_bytes": req_bytes / n,
        "cluster.response_bytes": resp_bytes / n,
        "cluster.forwarded": forwarded,
        "cluster.retries": gateway.get("overload_retries", 0),
        "cluster.reroutes": gateway.get("reroutes", 0),
        "cluster.gateway_self_ms": 1e3 * self_t.get("gateway.request", 0.0) / n,
        "cluster.worker_self_ms": 1e3 * self_t.get("worker.solve", 0.0) / n,
        "serve.tier1_hit_rate": merged["tier1_hits"] / requests,
        "serve.tier2_hit_rate": merged["tier2_hits"] / requests,
        "serve.coalesced": merged["coalesced"],
        "serve.batches": merged["batches"],
        "serve.batch_size_mean":
            merged["batched_requests"] / max(1, merged["batches"]),
        "serve.queue_wait_ms": float(np.mean(folded["waits"]))
        if folded["waits"] else 0.0,
        "serve.queue_peak": stats["merged"]["queue_peak"],
        "serve.rejected": merged["rejected"],
        "serve.timeouts": merged["timeouts"],
        "serve.batch_ms": float(np.mean([d for _, d in folded["batches"]]))
        / 1e3 if folded["batches"] else 0.0,
        "api.report_json_ms": 1e3 * build_json / n,
    }
    # End-to-end time is the sum of client latencies, untraced and traced:
    # the same requests against a cluster with its spans off and on.
    layers.update(trace_honesty(
        tracer, float(np.nansum(runs["untraced"][0].latency_ms)) / 1e3, n,
        traced_s=float(np.nansum(phase.latency_ms)) / 1e3))
    return Outcome(tally, metrics=layers,
                   details={"requests": n, "spans": len(tracer.spans)})
