#!/usr/bin/env python3
"""Self-test of the output checker: corrupted reports must count as failures.

    python3 perfbench/selftest.py

Solves a few small instances, confirms the checker passes the genuine
reports, then feeds it one corruption per check and confirms each is caught
with the expected check name and kind.  Exits non-zero on the first miss.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _expect(label: str, fails, check: str, kind: str) -> None:
    hits = [f for f in fails if f.check == check and f.kind == kind]
    if not hits:
        raise AssertionError(
            f"{label}: expected a {kind!r} {check!r} failure, got "
            f"{[(f.kind, f.check) for f in fails]}")
    print(f"ok  {label}: {kind} {check}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checker
    from harness import Tally
    from repro import instances as I
    from repro.api import solve

    par = solve(I.random_mixed_parallel(20, 1.0, seed=3), "optop")
    net = solve(I.grid_network(3, 3, 1.5, seed=4), "mop")
    base = checker.check_parallel(par, price_of_optimum=True)
    base_net, gap = checker.check_network(net)
    if base or base_net:
        raise AssertionError(f"genuine reports fail: {base + base_net}")
    print(f"ok  genuine reports pass (network gap {gap:.1e})")

    def flows(values, i, delta):
        out = list(values)
        out[i] += delta
        return tuple(out)

    o = np.asarray(par.optimum_flows)
    used = int(np.argmax(o))
    frozen = int(np.flatnonzero(np.asarray(par.leader_flows) > 0)[0])
    cases = [
        ("negative optimum flow",
         replace(par, optimum_flows=flows(par.optimum_flows, used, -2 * o[used])),
         "optimum_nonnegative", "wrong"),
        ("induced flow misses demand",
         replace(par, induced_flows=tuple(0.9 * x for x in par.induced_flows)),
         "induced_routes_demand", "wrong"),
        ("optimum cost off its flows",
         replace(par, optimum_cost=par.optimum_cost * (1 + 1e-6)),
         "optimum_cost", "wrong"),
        ("induced cost off its flows",
         replace(par, induced_cost=par.induced_cost * (1 - 1e-6)),
         "induced_cost", "wrong"),
        ("beta off the strategy",
         replace(par, beta=par.beta + 1e-6), "leader_controls_beta", "wrong"),
        ("beta off the min-latency characterisation",
         replace(par, beta=par.beta + 1e-6), "beta_characterisation",
         "accuracy"),
        ("beta out of range", replace(par, beta=1.5), "beta_range", "wrong"),
        ("leader splits a link",
         replace(par, leader_flows=flows(par.leader_flows, frozen,
                                         -0.5 * par.leader_flows[frozen])),
         "leader_plays_optimum", "wrong"),
        ("flow vector of the wrong length",
         replace(par, optimum_flows=par.optimum_flows[:-1]),
         "optimum_shape", "wrong"),
    ]
    for label, report, check, kind in cases:
        _expect(label, checker.check_parallel(report, price_of_optimum=True),
                check, kind)

    # Induced flows that route the demand at a higher cost than C(O).
    worse = np.asarray(par.induced_flows).copy()
    worse[used] += 0.05
    worse *= par.instance["demand"] / worse.sum()
    lat = checker.Latencies(par.instance["links"])
    _expect("induced cost above C(O)",
            checker.check_parallel(
                replace(par, induced_flows=tuple(worse),
                        induced_cost=lat.cost(worse)),
                price_of_optimum=True),
            "induced_equals_optimum", "accuracy")

    edge_lat = checker.Latencies([e["latency"] for e in net.instance["edges"]])
    nash = np.asarray(net.nash_flows)
    net_cases = [
        ("edge flow breaks node balance",
         replace(net, optimum_flows=flows(net.optimum_flows, 0, 0.1)),
         "optimum_balance", "wrong"),
        ("network optimum cost off its flows",
         replace(net, optimum_cost=net.optimum_cost * (1 + 1e-6)),
         "optimum_cost", "wrong"),
        # The Nash flow is feasible but not optimal: only the benchmark's own
        # shortest-path gap can tell.
        ("feasible but suboptimal optimum",
         replace(net, optimum_flows=tuple(nash),
                 optimum_cost=edge_lat.cost(nash)),
         "optimum_relative_gap", "accuracy"),
    ]
    for label, report, check, kind in net_cases:
        _expect(label, checker.check_network(report)[0], check, kind)

    _expect("served report differs from the in-process solve",
            checker.check_same_report(replace(par, beta=par.beta * 0.5), par,
                                      check="served_vs_local"),
            "served_vs_local", "wrong")
    _expect("resumed report differs in one bit",
            checker.check_bitwise(
                replace(par, optimum_cost=np.nextafter(par.optimum_cost, 0.0)
                        ).to_json(), par.to_json(),
                check="resume_equals_cold"),
            "resume_equals_cold", "wrong")

    tally = Tally(attempted=2)
    tally.checked("accuracy", [checker.Failure("accuracy", "x", "")])
    tally.checked("wrong", [checker.Failure("wrong", "y", "")])
    if (tally.failed, tally.wrong) != (2, 1):
        raise AssertionError(f"tally counted {tally}")
    print("ok  tally: accuracy counts as failed, wrong also as incorrect")
    print("checker self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
