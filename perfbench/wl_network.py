"""``network_mop``: algorithm MOP on single-commodity networks.

Closed loop, one thread; each instance is solved once with
``repro.api.solve(inst, "mop")`` at the default ``SolveConfig``.  A cycle
holds thirty networks of at most 60 edges, which the program solves with
its path-based solver, and one of more than 60 edges, which it hands to
Frank–Wolfe.  The shapes are fixed per slot and the seed draws latencies,
demands and order, so seeds differ in their draws but not in their mix.  At
the seed commit Frank–Wolfe stops at its iteration cap on every network
above 60 edges; the checker counts those solves as failures.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

import checker
from harness import InvalidRun, Outcome, Tally, Tracer, peak_rss_mb, \
    percentile, timed_setup, trace_honesty

IMPORTS = ("repro.api", "repro.instances")

#: A cycle solves each path-based shape PATH_REPEATS times and the
#: Frank–Wolfe shape once.  At the seed commit a Frank–Wolfe solve takes
#: 12-20 s while a path-based one takes 5-50 ms, so a quarter share of
#: Frank–Wolfe networks would leave four solves per run, whose median swung
#: 25-fold between seeds.  layered_network draws its extra edges at random;
#: its slots are sized to stay at or below 60 edges.
PATH_SHAPES = (
    ("grid_network", 3, 3),      # 12 edges
    ("grid_network", 3, 4),      # 17 edges
    ("grid_network", 4, 4),      # 24 edges
    ("grid_network", 3, 6),      # 27 edges
    ("grid_network", 4, 5),      # 31 edges
    ("grid_network", 5, 5),      # 40 edges
    ("layered_network", 3, 4),   # at most 40 edges
    ("layered_network", 2, 6),   # at most 48 edges
    ("layered_network", 4, 4),   # at most 56 edges
    ("layered_network", 3, 5),   # at most 60 edges
)
PATH_REPEATS = 3
FW_SHAPE = ("grid_network", 7, 7)  # 84 edges
#: One cycle: 31 solves, about 15-20 s at the seed commit.
POOL_CYCLES = 1


def plan(seed: int, cycles: int):
    """Seeded cycles of (generator, size, size, demand, instance seed).

    Demand is log-uniform on [0.5, 4], stratified over the repeats of each
    path-based shape.
    """
    rng = np.random.default_rng([seed, 0x30B])
    out = []
    for _ in range(cycles):
        slots = [(shape, (r + rng.uniform()) / PATH_REPEATS)
                 for shape in PATH_SHAPES for r in range(PATH_REPEATS)]
        slots.append((FW_SHAPE, rng.uniform()))
        out.append([slots[k][0] + (
            float(math.exp(math.log(0.5) + slots[k][1] * math.log(8.0))),
            int(rng.integers(2**31 - 1))) for k in rng.permutation(len(slots))])
    return out


def build(I, cycles):
    return [[(spec, getattr(I, spec[0])(spec[1], spec[2], spec[3],
                                        seed=spec[4])) for spec in cycle]
            for cycle in cycles]


def run(seed: int, seconds: float, setup_reps: int, import_s: float,
        workdir) -> Outcome:
    from repro import instances as I
    from repro.api import cache_stats, clear_cache, solve

    stream, build_s = timed_setup(lambda: build(I, plan(seed, POOL_CYCLES)),
                                  setup_reps)
    clear_cache()
    times: List[float] = []
    gaps: List[float] = []
    tally = Tally()
    for cycle in stream:
        for spec, inst in cycle:
            tally.attempted += 1
            start = time.perf_counter()
            try:
                report = solve(inst, "mop")
            except Exception as exc:  # noqa: BLE001 - counted, reported
                tally.error(str(spec), exc)
                continue
            times.append(time.perf_counter() - start)
            fails, gap = checker.check_network(report)
            gaps.append(gap)
            tally.checked(str(spec), fails)
        if sum(times) >= seconds:
            break
    hits = cache_stats()["hits"]
    if hits:
        raise InvalidRun(f"network_mop saw {hits} result-cache hits")
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
                 # One Frank–Wolfe solve per run sits beyond p90; the gated
                 # latency is the slowest solve, which is that one.
                 "latency_ms": 1e3 * max(times)},
        named=named,
        details={"solves": len(times), "busy_s": busy,
                 "optimum_rel_gap_max": max(gaps) if gaps else None})


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def replay_mop(inst, tracer: Tracer, rid: str, config, optima: list):
    """MOP through its public pieces, in the order ``solve`` runs them, with
    a span around each call.  Returns the report it builds."""
    from repro.api import SolveReport, instance_digest
    from repro.core.strategy import NetworkStackelbergStrategy
    from repro.equilibrium import network_nash, network_optimum
    from repro.paths.dijkstra import shortest_path_edge_set
    from repro.paths.maxflow import max_flow
    from repro.serialization import instance_to_dict

    solver, tol = config.network_solver(), config.tolerance
    with tracer.span("solve", rid):
        with tracer.span("serialization.digest", rid):
            instance_digest(inst)
        with tracer.span("core.mop", rid):
            with tracer.span("equilibrium.network_optimum", rid):
                optimum = network_optimum(inst, solver=solver, tolerance=tol)
            optima.append(optimum)
            opt_flows = optimum.edge_flows
            costs = inst.latencies_at(opt_flows)
            remaining = opt_flows.copy()
            free_routing = np.zeros_like(opt_flows)
            free_flows = []
            for com in inst.commodities:
                with tracer.span("paths.shortest_path_set", rid):
                    edges = shortest_path_edge_set(
                        inst.network, com.source, com.sink, costs,
                        atol=config.shortest_path_atol)
                with tracer.span("paths.max_flow", rid):
                    value, routing = max_flow(inst.network, com.source,
                                              com.sink, remaining,
                                              allowed_edges=edges)
                free = min(com.demand, value)
                if value > com.demand and value > 0.0:
                    routing = routing * (com.demand / value)
                remaining = np.clip(remaining - routing, 0.0, None)
                free_routing += routing
                free_flows.append(float(free))
            strategy = NetworkStackelbergStrategy(
                edge_flows=np.clip(opt_flows - free_routing, 0.0, None),
                controlled_demands=tuple(
                    max(0.0, com.demand - free)
                    for com, free in zip(inst.commodities, free_flows)),
                total_demand=inst.total_demand)
            beta = strategy.controlled_flow / inst.total_demand
            with tracer.span("core.induce", rid):
                outcome = strategy.induce(inst, solver=solver, tolerance=tol)
            with tracer.span("equilibrium.network_nash", rid):
                nash = network_nash(inst, solver=solver, tolerance=tol)
        with tracer.span("api.report_build", rid):
            return SolveReport(
                strategy="mop", instance_kind="network",
                instance=instance_to_dict(inst), alpha=strategy.alpha,
                beta=beta, leader_flows=strategy.edge_flows,
                induced_flows=outcome.combined_flows,
                optimum_flows=opt_flows, nash_flows=nash.edge_flows,
                induced_cost=float(outcome.cost),
                optimum_cost=float(optimum.cost), nash_cost=float(nash.cost),
                price_of_anarchy=nash.cost / optimum.cost
                if optimum.cost > 0 else 1.0,
                config=config, metadata={"free_flows": free_flows})


def trace(seed: int, seconds: float, workdir, out_path) -> Outcome:
    """Per-layer figures: each network is solved untraced through ``solve``
    (copy A) and replayed with spans (copy B, a fresh build)."""
    from repro import instances as I
    from repro.api import SolveConfig, clear_cache, solve
    from repro.equilibrium.frank_wolfe import all_or_nothing

    cycles = plan(seed, 1)
    copies_a, copies_b = build(I, cycles), build(I, cycles)
    config = SolveConfig()
    clear_cache()
    tracer = Tracer()
    optima: list = []
    tally = Tally()
    untraced = report_json = aon = 0.0
    ops = mismatches = aon_calls = 0
    gaps: List[float] = []
    spent = time.perf_counter()
    for cyc_a, cyc_b in zip(copies_a, copies_b):
        for (spec, inst_a), (_, inst_b) in zip(cyc_a, cyc_b):
            tally.attempted += 1
            start = time.perf_counter()
            report = solve(inst_a, "mop")
            untraced += time.perf_counter() - start
            start = time.perf_counter()
            report.to_json()
            report_json += time.perf_counter() - start
            replayed = replay_mop(inst_b, tracer, f"{spec[0]}/{spec[4]}",
                                  config, optima)
            if checker.check_same_report(replayed, report, check="replay"):
                mismatches += 1
            if optima[-1].solver == "frank-wolfe":
                # One all-or-nothing step at the optimum's marginal costs:
                # the unit of work Frank–Wolfe repeats every iteration.
                costs = inst_b.marginal_costs_at(optima[-1].edge_flows)
                start = time.perf_counter()
                all_or_nothing(inst_b, costs)
                aon += time.perf_counter() - start
                aon_calls += 1
            ops += 1
            fails, gap = checker.check_network(report)
            gaps.append(gap)
            tally.checked(str(spec), fails)
        if time.perf_counter() - spent >= seconds:
            break
    tracer.dump(out_path)
    dur, self_t = tracer.durations(), tracer.self_times()
    fw = [r for r in optima if r.solver == "frank-wolfe"]
    per = 1e3 / ops
    aon_ms = 1e3 * aon / aon_calls if aon_calls else 0.0
    fw_iterations = float(np.mean([r.iterations for r in fw])) if fw else 0.0
    layers = {
        "equilibrium.network_optimum_ms":
            per * dur.get("equilibrium.network_optimum", 0.0),
        "equilibrium.fw_iterations": fw_iterations,
        "equilibrium.fw_final_gap":
            max(r.relative_gap for r in fw) if fw else 0.0,
        "equilibrium.fw_unconverged": sum(1 for r in fw if not r.converged),
        "equilibrium.pathbased_share":
            1.0 - len(fw) / len(optima),
        "paths.aon_ms": aon_ms,
        "paths.aon_fw_estimate_ms": aon_ms * fw_iterations,
        "core.mop_self_ms": per * self_t.get("core.mop", 0.0),
        "core.induce_ms": per * dur.get("core.induce", 0.0),
        "equilibrium.network_nash_ms":
            per * dur.get("equilibrium.network_nash", 0.0),
        "check.optimum_rel_gap_max": max(gaps),
        "serialization.digest_ms": per * dur.get("serialization.digest", 0.0),
        "api.report_build_ms": per * dur.get("api.report_build", 0.0),
        "api.report_json_ms": per * report_json,
    }
    layers.update(trace_honesty(tracer, untraced, ops))
    return Outcome(tally, metrics=layers,
                   details={"solves": ops, "frank_wolfe_solves": len(fw),
                            "replay_mismatches": mismatches})
