"""``parallel_cold``: first solves of never-seen parallel-link instances.

Closed loop, one thread.  Each instance is solved once with
``repro.api.solve(inst, "optop")`` at the default ``SolveConfig``: the cold
path every study cell, served miss and OpTop sub-instance pays.

The stream is stratified so that seeds differ in their draws but not in
their mix: a *cycle* holds one instance per (family, log-m stratum) pair in
a seeded order, and a run measures whole cycles.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

import checker
from harness import InvalidRun, Outcome, Tally, Tracer, peak_rss_mb, \
    percentile, timed_setup, trace_honesty

M_MIN, M_MAX = 100, 5000
#: Log-m strata per family (a power of two, for the demand pairing).  A
#: cycle is one instance per (family, stratum): 7 x 16 = 112 solves, the
#: smallest whole cycle that leaves ten solves beyond the 90th percentile.
STRATA = 16
#: Cycles built in set-up.  A run stops at the first cycle boundary after
#: ``--seconds`` of solving and MIN_SAMPLES solves, or when the pool runs
#: out; at the seed commit one cycle takes longer than the shipped 15 s.
POOL_CYCLES = 1
#: Smallest sample that leaves ten solves beyond the 90th percentile.
MIN_SAMPLES = 100
TRACE_POOL_CYCLES = 1
IMPORTS = ("repro.api", "repro.instances")


def _log_uniform(lo: float, hi: float, u: float) -> float:
    """The point at quantile ``u`` of the log-uniform law on [lo, hi]."""
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _families(I) -> List[Tuple[str, Callable]]:
    """(name, draw) pairs; ``draw(m, u, seed)`` returns the instance whose
    demand sits at quantile ``u`` of the family's demand law.

    Demand ranges were read off a beta-versus-demand scan at m = 100 and
    m = 2000 so that beta spans (0, 1) instead of clustering near 1, which
    is where large demands on many random links put it.
    """
    return [
        ("random_linear_parallel", lambda m, u, s: I.random_linear_parallel(
            m, _log_uniform(1e-4, 3.0, u), seed=s)),
        ("random_mixed_parallel", lambda m, u, s: I.random_mixed_parallel(
            m, _log_uniform(0.03, 10.0, u), seed=s)),
        ("random_polynomial_parallel",
         lambda m, u, s: I.random_polynomial_parallel(
             m, _log_uniform(1e-3, 3.0, u), seed=s)),
        # Capacities are uniform on [1, 10]: mean 5.5 per link.
        ("random_mm1_parallel", lambda m, u, s: I.random_mm1_parallel(
            m, _log_uniform(0.01, 10.0, u) / (5.5 * m), seed=s)),
        ("heavy_tail_capacity", lambda m, u, s: I.heavy_tail_capacity(
            m, demand_fraction=0.25 + 0.72 * u, seed=s)),
        ("mixed_family_soup", lambda m, u, s: I.mixed_family_soup(
            m, _log_uniform(0.1, 10.0, u), seed=s)),
        ("near_degenerate_breakpoints",
         lambda m, u, s: I.near_degenerate_breakpoints(
             m, _log_uniform(1e-5, 30.0, u), seed=s)),
    ]


def plan(seed: int, cycles: int) -> List[List[Tuple[str, int, float, int]]]:
    """Seeded stream plan: ``cycles`` lists of (family, m, demand quantile,
    instance seed).  Cheap; the instances are built from it in set-up.

    m is log-uniform on [M_MIN, M_MAX] and the demand quantile uniform on
    [0, 1], both stratified: every family gets one instance per m-stratum
    in each cycle, and m-stratum ``j`` pairs with demand stratum
    ``(PAIRING[j] + c) % STRATA`` in cycle ``c``.  The bit-reversal pairing
    keeps instance size and demand uncorrelated.  The seed draws the points
    inside the strata, the latencies and the order, so seeds differ in
    their draws but not in their mix.
    """
    rng = np.random.default_rng([seed, 0x9A11])
    names = [name for name, _ in _families(None)]
    bits = STRATA.bit_length() - 1
    pairing = [int(format(j, f"0{bits}b")[::-1], 2) for j in range(STRATA)]
    out = []
    for c in range(cycles):
        slots = [(f, j) for f in range(len(names)) for j in range(STRATA)]
        cycle = []
        for k in rng.permutation(len(slots)):
            f, j = slots[k]
            m = int(round(_log_uniform(M_MIN, M_MAX,
                                       (j + rng.uniform()) / STRATA)))
            u = ((pairing[j] + c) % STRATA + rng.uniform()) / STRATA
            cycle.append((names[f], m, u, int(rng.integers(2**31 - 1))))
        out.append(cycle)
    return out


def build(I, cycles) -> List[List[Tuple[tuple, object]]]:
    draw = dict(_families(I))
    return [[(spec, draw[spec[0]](*spec[1:])) for spec in cycle]
            for cycle in cycles]


def _check(report, family: str) -> List[checker.Failure]:
    return checker.check_parallel(
        report, price_of_optimum=True,
        # Beta is undefined at near-ties until the tolerance that decides
        # ties is defined once; the cost checks still apply there.
        check_beta=family != "near_degenerate_breakpoints")


def run(seed: int, seconds: float, setup_reps: int, import_s: float,
        workdir) -> Outcome:
    from repro import instances as I
    from repro.api import cache_stats, clear_cache, solve

    stream, build_s = timed_setup(lambda: build(I, plan(seed, POOL_CYCLES)),
                                  setup_reps)
    clear_cache()
    times: List[float] = []
    tally = Tally()
    for cycle in stream:
        for spec, inst in cycle:
            tally.attempted += 1
            start = time.perf_counter()
            try:
                report = solve(inst, "optop")
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.error(str(spec), exc)
                continue
            times.append(time.perf_counter() - start)
            tally.checked(str(spec), _check(report, spec[0]))
        if sum(times) >= seconds and len(times) >= MIN_SAMPLES:
            break
    hits = cache_stats()["hits"]
    if hits:
        raise InvalidRun(f"parallel_cold saw {hits} result-cache hits")
    busy = sum(times)
    named = {
        "setup_s": import_s + build_s,
        "peak_rss_mb": peak_rss_mb(),
        "solves_per_s": len(times) / busy,
        "solve_ms_p50": 1e3 * percentile(times, 50),
        "solve_ms_p90": 1e3 * percentile(times, 90),
    }
    return Outcome(
        tally,
        metrics={"setup_s": named["setup_s"],
                 "peak_rss_mb": named["peak_rss_mb"],
                 "throughput_per_s": named["solves_per_s"],
                 "latency_ms": named["solve_ms_p90"]},
        named=named,
        details={"solves": len(times), "busy_s": busy})


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def replay_optop(inst, tracer: Tracer, rid: str, config, warm_calls: list,
                 counters: Dict[str, int]):
    """OpTop through its public pieces, in the order ``solve`` runs them,
    with a span around each call.  Returns the report it builds."""
    from repro.api import SolveReport, instance_digest
    from repro.core.strategy import ParallelStackelbergStrategy
    from repro.equilibrium import parallel_nash, parallel_optimum
    from repro.serialization import instance_to_dict

    tol, atol = config.water_fill_tol, config.underload_atol
    backend = config.kernel_backend

    def fill(target, kind: str, grid_span: str):
        with tracer.span("equilibrium.water_fill", rid):
            with tracer.span(grid_span, rid):
                batch = target.latency_batch()
                if (~batch.is_constant).any() \
                        and batch.linear_increasing_params() is None:
                    profile = batch.level_profile(kind)
                    if profile is not None:
                        profile.grid()
                        counters["grid_builds"] += 1
            solver = parallel_optimum if kind == "optimum" else parallel_nash
            warm_calls.append((solver, target))
            return solver(target, tol=tol, backend=backend)

    with tracer.span("solve", rid):
        with tracer.span("serialization.digest", rid):
            instance_digest(inst)
        with tracer.span("core.optop", rid):
            with tracer.span("latency.batch_build", rid):
                inst.latency_batch()
            optimum = fill(inst, "optimum", "latency.grid_build")
            initial_nash = fill(inst, "nash", "latency.grid_build")
            opt_flows = optimum.flows
            demand = inst.demand
            scale = max(1.0, demand)
            active = list(range(inst.num_links))
            remaining = demand
            strategy_flows = np.zeros(inst.num_links)
            rounds = 0
            while active and remaining > -atol * scale:
                if len(active) == inst.num_links and remaining == demand:
                    nash = initial_nash
                else:
                    sub = inst.sub_instance(active, max(0.0, remaining))
                    nash = fill(sub, "nash", "latency.subgrid_build")
                rounds += 1
                under = [orig for pos, orig in enumerate(active)
                         if nash.flows[pos] < opt_flows[orig] - atol * scale]
                if not under:
                    break
                for orig in under:
                    strategy_flows[orig] = opt_flows[orig]
                remaining -= float(sum(opt_flows[orig] for orig in under))
                frozen = set(under)
                active = [orig for orig in active if orig not in frozen]
            counters["rounds"] += rounds
            remaining = max(0.0, remaining)
            beta = (demand - remaining) / demand if demand > 0.0 else 0.0
            strategy = ParallelStackelbergStrategy(flows=strategy_flows,
                                                   total_demand=demand)
            with tracer.span("core.induce", rid):
                outcome = strategy.induce(inst, tol=tol, backend=backend)
        with tracer.span("api.report_build", rid):
            return SolveReport(
                strategy="optop", instance_kind="parallel",
                instance=instance_to_dict(inst), alpha=strategy.alpha,
                beta=beta, leader_flows=strategy.flows,
                induced_flows=outcome.combined_flows,
                optimum_flows=optimum.flows, nash_flows=initial_nash.flows,
                induced_cost=float(outcome.cost),
                optimum_cost=float(optimum.cost),
                nash_cost=float(initial_nash.cost),
                price_of_anarchy=initial_nash.cost / optimum.cost
                if optimum.cost > 0 else 1.0,
                config=config, metadata={"rounds": rounds})


def trace(seed: int, seconds: float, workdir, out_path) -> Outcome:
    """Per-layer figures: each instance is solved untraced through
    ``solve`` (copy A) and replayed with spans (copy B, a fresh build)."""
    from repro import instances as I
    from repro.api import SolveConfig, clear_cache, solve

    cycles = plan(seed, TRACE_POOL_CYCLES)
    copies_a, copies_b = build(I, cycles), build(I, cycles)
    config = SolveConfig()
    clear_cache()
    tracer = Tracer()
    counters = {"grid_builds": 0, "rounds": 0}
    untraced = warm = report_json = 0.0
    ops = mismatches = 0
    tally = Tally()
    spent = time.perf_counter()
    for cyc_a, cyc_b in zip(copies_a, copies_b):
        for (spec, inst_a), (_, inst_b) in zip(cyc_a, cyc_b):
            tally.attempted += 1
            start = time.perf_counter()
            report = solve(inst_a, "optop")
            untraced += time.perf_counter() - start
            start = time.perf_counter()
            report.to_json()
            report_json += time.perf_counter() - start
            warm_calls: list = []
            replayed = replay_optop(inst_b, tracer, f"{spec[0]}/{spec[3]}",
                                    config, warm_calls, counters)
            start = time.perf_counter()
            for solver, target in warm_calls:
                solver(target, tol=config.water_fill_tol,
                       backend=config.kernel_backend)
            warm += time.perf_counter() - start
            ops += 1
            if checker.check_same_report(replayed, report, check="replay"):
                mismatches += 1
            tally.checked(str(spec), _check(report, spec[0]))
        if time.perf_counter() - spent >= seconds:
            break
    tracer.dump(out_path)
    dur, self_t, cnt = tracer.durations(), tracer.self_times(), tracer.counts()
    per = 1e3 / ops
    layers = {
        "latency.batch_build_ms": per * dur.get("latency.batch_build", 0.0),
        "latency.grid_build_ms": per * dur.get("latency.grid_build", 0.0),
        "latency.subgrid_build_ms": per * dur.get("latency.subgrid_build", 0.0),
        "latency.grid_builds": counters["grid_builds"] / ops,
        "equilibrium.water_fill_cold_ms":
            per * dur.get("equilibrium.water_fill", 0.0),
        "equilibrium.water_fill_warm_ms": per * warm,
        "equilibrium.water_fill_calls":
            cnt.get("equilibrium.water_fill", 0) / ops,
        "core.optop_rounds": counters["rounds"] / ops,
        "core.optop_self_ms": per * self_t.get("core.optop", 0.0),
        "core.induce_ms": per * dur.get("core.induce", 0.0),
        "serialization.digest_ms": per * dur.get("serialization.digest", 0.0),
        "api.report_build_ms": per * dur.get("api.report_build", 0.0),
        "api.report_json_ms": per * report_json,
    }
    layers.update(trace_honesty(tracer, untraced, ops))
    # A replay that no longer matches the program's answer means the
    # program's call order changed; its spans then mis-attribute time.
    return Outcome(tally, metrics=layers,
                   details={"solves": ops, "replay_mismatches": mismatches})
