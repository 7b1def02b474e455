"""``study_sweep``: a paper-style study, cold and then resumed.

Closed loop, one process.  A seeded ``StudySpec`` with one axis —
``random_mixed_parallel`` at m in {50, 200} over a grid of demands and
several seeds, strategies optop, llf, scale and aloof — runs through
``run_study`` at its shipped ``max_workers``, first into a fresh
``ArtifactStore`` (the cold pass: solves and writes) and then again on the
same store after ``clear_cache()`` (the resume pass: reads only, zero
solves).  This is the only workload that reaches ``study.runner``,
``study.store``, the whole-batch pre-pass of ``api.session`` and
``water_fill_many``.  A run repeats the pair with fresh seeds and a fresh
store each time and reports medians over the repetitions.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

import checker
from harness import InvalidRun, Outcome, Tally, Tracer, peak_rss_mb, \
    timed_setup, trace_honesty

IMPORTS = ("repro.api", "repro.instances", "repro.study")

NUM_LINKS = (50, 200)
DEMANDS = (0.05, 0.2, 0.8, 3.0, 10.0)
SEEDS_PER_SPEC = 4
STRATEGIES = ("optop", "llf", "scale", "aloof")
#: Specs built in set-up; a run stops early only when they run out.
POOL_SPECS = 12


def build_specs(seed: int, count: int):
    from repro.study import GeneratorAxis, StudySpec

    rng = np.random.default_rng([seed, 0x57D])
    return [StudySpec(
        f"perfbench-{seed}-{k}",
        [GeneratorAxis("random_mixed_parallel", {},
                       grid={"num_links": list(NUM_LINKS),
                             "demand": list(DEMANDS)},
                       seeds=[int(s) for s in
                              rng.integers(2**31 - 1, size=SEEDS_PER_SPEC)])],
        strategies=STRATEGIES) for k in range(count)]


#: Cells per study whose resumed report is also compared serialised, bit for
#: bit; every cell is compared field by field.
BITWISE_SAMPLE = 32


def _check_pair(cold, resumed, tally: Tally, label: str, seed: int) -> None:
    """Cell checks on the cold pass; the resume pass must equal it."""
    rng = np.random.default_rng([seed, 0xB17])
    bitwise = set(rng.choice(len(cold), size=min(BITWISE_SAMPLE, len(cold)),
                             replace=False).tolist())
    for k, (a, b) in enumerate(zip(cold, resumed)):
        tally.attempted += 1
        fails = checker.check_parallel(
            a.report, price_of_optimum=a.cell.strategy == "optop")
        if b.report != a.report:
            fails.append(checker.Failure("wrong", "resume_equals_cold",
                                         "resumed report differs"))
        elif k in bitwise:
            fails += checker.check_bitwise(b.report.to_json(),
                                           a.report.to_json(),
                                           check="resume_equals_cold")
        tally.checked(f"{label} cell {k} ({a.cell.strategy})", fails)
    if len(cold) != len(resumed):
        tally.checked(label, [checker.Failure(
            "wrong", "resume_cell_count", f"{len(resumed)} vs {len(cold)}")])


def _pass_pair(spec, root, tally: Tally, label: str):
    """Cold pass into a fresh store, then the resume pass; returns both
    reports and their wall times."""
    from repro.api import clear_cache
    from repro.study import ArtifactStore, run_study

    store = ArtifactStore(root)
    clear_cache()
    start = time.perf_counter()
    cold = run_study(spec, store=store)
    cold_s = time.perf_counter() - start
    if cold.store_hits:
        raise InvalidRun(f"{label}: cold pass hit the store "
                         f"{cold.store_hits} times")
    clear_cache()
    start = time.perf_counter()
    resumed = run_study(spec, store=store)
    resume_s = time.perf_counter() - start
    if resumed.solver_calls or resumed.store_hits != len(resumed):
        tally.checked(label, [checker.Failure(
            "wrong", "resume_is_reads_only",
            f"{resumed.solver_calls} solves, {resumed.store_hits} store "
            f"hits for {len(resumed)} cells")])
    return cold, resumed, cold_s, resume_s


def run(seed: int, seconds: float, setup_reps: int, import_s: float,
        workdir) -> Outcome:
    specs, build_s = timed_setup(lambda: build_specs(seed, POOL_SPECS),
                                 setup_reps)
    tally = Tally()
    cold_rate: List[float] = []
    resume_ms: List[float] = []
    busy = 0.0
    for k, spec in enumerate(specs):
        cold, resumed, cold_s, resume_s = _pass_pair(
            spec, workdir / f"store-{k}", tally, spec.name)
        busy += cold_s + resume_s
        cold_rate.append(len(cold) / cold_s)
        resume_ms.append(1e3 * resume_s / len(resumed))
        _check_pair(cold.results, resumed.results, tally, spec.name, seed + k)
        if busy >= seconds:
            break
    named = {
        "setup_s": import_s + build_s,
        "peak_rss_mb": peak_rss_mb(),
        "cells_per_s": float(np.median(cold_rate)),
        "resume_cells_per_s": 1e3 / float(np.median(resume_ms)),
    }
    return Outcome(
        tally,
        metrics={"setup_s": named["setup_s"],
                 "peak_rss_mb": named["peak_rss_mb"],
                 "throughput_per_s": named["cells_per_s"],
                 "latency_ms": float(np.median(resume_ms))},
        named=named,
        details={"studies": len(cold_rate), "cells_per_study": len(cold),
                 "busy_s": busy})


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def _replay_pass(spec, store, tracer: Tracer, rid: str) -> int:
    """One ``run_study`` pass through its public pieces with spans;
    returns the number of ``solve_many`` groups it ran."""
    from repro.api import instance_digest, solve_many
    from repro.study import artifact_key

    with tracer.span("study.pass", rid):
        with tracer.span("study.expand", rid):
            cells = list(spec.expand())
            instances = [cell.make_instance() for cell in cells]
        keys = []
        pending: Dict[tuple, List[int]] = {}
        for i, (cell, inst) in enumerate(zip(cells, instances)):
            with tracer.span("serialization.digest", rid):
                key = artifact_key(instance_digest(inst), cell.strategy,
                                   cell.config)
            keys.append(key)
            with tracer.span("study.store_get", rid):
                stored = store.get(key)
            if stored is None:
                pending.setdefault((cell.strategy, cell.config.to_json()),
                                   []).append(i)
        for (strategy, _), idx in pending.items():
            with tracer.span("api.solve_many", rid):
                reports = solve_many([instances[i] for i in idx], strategy,
                                     config=cells[idx[0]].config,
                                     max_workers=0)
            for i, report in zip(idx, reports):
                with tracer.span("study.store_put", rid):
                    store.put(keys[i], report)
    return len(pending)


def trace(seed: int, seconds: float, workdir, out_path) -> Outcome:
    """Per-layer figures from one spec: run untraced through ``run_study``
    (cold, then resume), then replayed with spans on a second fresh store."""
    from repro.api import SolveConfig, clear_cache
    from repro.equilibrium import water_fill_many
    from repro.study import ArtifactStore

    spec = build_specs(seed, 1)[0]
    tally = Tally()
    cold, resumed, cold_s, resume_s = _pass_pair(spec, workdir / "untraced",
                                                 tally, spec.name)
    _check_pair(cold.results, resumed.results, tally, spec.name, seed)
    cells = len(cold)

    tracer = Tracer()
    store = ArtifactStore(workdir / "traced")
    config = SolveConfig()
    clear_cache()
    groups = _replay_pass(spec, store, tracer, "cold")
    clear_cache()
    _replay_pass(spec, store, tracer, "resume")
    tracer.dump(out_path)

    # Side measurements, outside the span tree: serialising each report, and
    # the batched water filling the aloof cells go through.
    start = time.perf_counter()
    for result in cold.results:
        result.report.to_json()
    report_json = time.perf_counter() - start
    # Cells of one (num_links, seed) share their links and differ in demand.
    by_system: Dict[tuple, list] = {}
    for cell in spec.expand():
        if cell.strategy == "aloof":
            key = (cell.params_dict["num_links"], cell.seed)
            by_system.setdefault(key, []).append(cell.make_instance())
    many = 0.0
    for insts in by_system.values():
        demands = np.array([inst.demand for inst in insts])
        start = time.perf_counter()
        for kind in ("optimum", "nash"):
            water_fill_many(insts[0].latencies, demands, kind,
                            tol=config.water_fill_tol)
        many += time.perf_counter() - start

    dur = tracer.durations()
    per = 1e3 / cells
    layers = {
        "study.expand_ms": per * dur.get("study.expand", 0.0),
        "study.store_put_ms": per * dur.get("study.store_put", 0.0),
        "study.store_get_ms": per * dur.get("study.store_get", 0.0),
        "study.solved": cold.solver_calls,
        "study.resumed": resumed.store_hits,
        "api.batch_groups": groups,
        "api.cache_hits": cold.cache_hits,
        "api.cache_misses": cold.cache_misses,
        "equilibrium.water_fill_many_ms": per * many,
        "serialization.digest_ms": per * dur.get("serialization.digest", 0.0),
        "api.report_json_ms": per * report_json,
    }
    layers.update(trace_honesty(tracer, cold_s + resume_s, cells))
    return Outcome(tally, metrics=layers,
                   details={"cells": cells, "cold_s": cold_s,
                            "resume_s": resume_s})
