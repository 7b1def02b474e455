"""Independent output checker.

Everything here is recomputed from a report's serialised instance and flow
vectors with the benchmark's own NumPy/SciPy code; nothing calls the
program's verification helpers.  Each check returns a list of
:class:`Failure` records, empty when the output passes.

A failure has a *kind*:

* ``"wrong"`` — the output contradicts itself or the model (negative flow,
  demand not routed, a cost that does not match its flows, a beta that does
  not match its strategy, a served report that differs from an in-process
  solve).  Any of these makes a run's ``correct`` false.
* ``"accuracy"`` — the output is consistent but misses the checked
  precision: a network optimum whose relative gap exceeds
  ``NETWORK_GAP_MAX``, an induced cost that differs from C(O), or a
  parallel-link beta that differs from the min-latency characterisation by
  more than ``REL_TOL``.  These count as
  failed operations and in ``error_rate``, but leave ``correct`` alone:
  they are the solvers' tolerance shortfalls, reported as measured.  (At
  the seed commit the beta misses come from OpTop's flow tolerance, which
  never freezes a link carrying less than ``1e-8 * max(1, r)``; on
  near-tied links that also moves the induced cost off C(O) in the ninth
  digit.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Relative tolerance on costs, flow sums and beta (parallel links).
REL_TOL = 1e-9
#: Largest accepted relative gap of a network optimum.
NETWORK_GAP_MAX = 1e-6
#: Relative tolerance on network costs and flow balance.  Network optima are
#: iterative, so induced cost is held to the same precision as the gap.
NETWORK_REL_TOL = 1e-6


@dataclass(frozen=True)
class Failure:
    kind: str  # "wrong" or "accuracy"
    check: str
    detail: str


# --------------------------------------------------------------------------- #
# Latency evaluation from the serialised form
# --------------------------------------------------------------------------- #
class Latencies:
    """Vectorised ``l(x)`` and ``l'(x)`` for a list of latency dictionaries."""

    def __init__(self, specs: Sequence[Dict]) -> None:
        self.size = len(specs)
        groups: Dict[str, List[int]] = {}
        for i, spec in enumerate(specs):
            groups.setdefault(spec["type"], []).append(i)
        self._groups = []
        for kind, idx in groups.items():
            rows = [specs[i] for i in idx]
            idx_arr = np.asarray(idx, dtype=np.intp)
            if kind == "polynomial":
                width = max(len(r["coefficients"]) for r in rows)
                coeffs = np.zeros((len(rows), width))
                for j, r in enumerate(rows):
                    coeffs[j, :len(r["coefficients"])] = r["coefficients"]
                params = {"coeffs": coeffs}
            else:
                keys = {
                    "linear": ("slope", "intercept"),
                    "constant": ("value",),
                    "monomial": ("coefficient", "degree", "constant"),
                    "bpr": ("free_flow_time", "capacity", "alpha", "beta"),
                    "mm1": ("capacity",),
                }.get(kind)
                if keys is None:
                    raise ValueError(f"checker: unknown latency type {kind!r}")
                params = {key: np.array([float(r.get(key, 0.0)) for r in rows])
                          for key in keys}
            self._groups.append((kind, idx_arr, params))

    def _apply(self, x: np.ndarray, derivative: bool) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(self.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for kind, idx, p in self._groups:
                xs = x[idx]
                out[idx] = _family(kind, p, xs, derivative)
        return out

    def values(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, derivative=False)

    def derivs(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, derivative=True)

    def cost(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.dot(x, self.values(x)))

    def marginals(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.values(x) + x * self.derivs(x)


def _family(kind: str, p: Dict[str, np.ndarray], x: np.ndarray,
            derivative: bool) -> np.ndarray:
    if kind == "linear":
        return np.broadcast_to(p["slope"], x.shape).copy() if derivative \
            else p["slope"] * x + p["intercept"]
    if kind == "constant":
        return np.zeros_like(x) if derivative else p["value"].copy()
    if kind == "monomial":
        c, d = p["coefficient"], p["degree"]
        if derivative:
            return np.where(d == 1.0, c, c * d * np.power(x, d - 1.0))
        return c * np.power(x, d) + p["constant"]
    if kind == "polynomial":
        coeffs = p["coeffs"]
        if derivative:
            powers = np.arange(1, coeffs.shape[1])
            coeffs = coeffs[:, 1:] * powers
            if coeffs.shape[1] == 0:
                return np.zeros_like(x)
        acc = np.zeros_like(x)
        for k in range(coeffs.shape[1] - 1, -1, -1):
            acc = acc * x + coeffs[:, k]
        return acc
    if kind == "bpr":
        t0, cap, a, b = p["free_flow_time"], p["capacity"], p["alpha"], p["beta"]
        ratio = x / cap
        if derivative:
            return t0 * a * b / cap * np.power(ratio, b - 1.0)
        return t0 * (1.0 + a * np.power(ratio, b))
    # mm1: 1 / (c - x), infinite at or beyond capacity
    slack = p["capacity"] - x
    value = np.where(slack > 0, 1.0 / np.where(slack > 0, slack, 1.0), np.inf)
    return value * value if derivative else value


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


# --------------------------------------------------------------------------- #
# Parallel links
# --------------------------------------------------------------------------- #
def beta_by_min_latency(latencies: Latencies, optimum: np.ndarray,
                        demand: float) -> float:
    """``1 - sum_{i in U} o_i / r`` with ``U`` the used links whose latency
    at the optimum equals the minimum latency at the optimum."""
    lat = latencies.values(optimum)
    floor = float(np.min(lat))
    used = (optimum > 0.0) & (lat <= floor)
    return 1.0 - float(optimum[used].sum()) / demand


def check_parallel(report, *, price_of_optimum: bool,
                   check_beta: bool = True) -> List[Failure]:
    """Checks for a parallel-link report.

    Every report: flows non-negative, optimum and induced flows route the
    demand, reported costs match the flows.  ``price_of_optimum`` reports
    (optop) additionally: the Leader plays the optimum on the links it
    controls, controls exactly ``beta * r``, the induced cost equals C(O),
    and (with ``check_beta``) beta matches the min-latency characterisation.
    """
    inst = report.instance
    demand = float(inst["demand"])
    lat = Latencies(inst["links"])
    fails: List[Failure] = []
    opt = np.asarray(report.optimum_flows, dtype=float)
    induced = np.asarray(report.induced_flows, dtype=float)
    leader = np.asarray(report.leader_flows, dtype=float)
    floor = -1e-12 * max(1.0, demand)
    for name, flows in (("optimum", opt), ("induced", induced),
                        ("leader", leader)):
        if flows.shape != (lat.size,):
            fails.append(Failure("wrong", f"{name}_shape",
                                 f"{flows.shape} vs {lat.size} links"))
            return fails
        if flows.min() < floor:
            fails.append(Failure("wrong", f"{name}_nonnegative",
                                 f"min flow {flows.min():.3e}"))
    for name, flows in (("optimum", opt), ("induced", induced)):
        if _rel(float(flows.sum()), demand) > REL_TOL:
            fails.append(Failure("wrong", f"{name}_routes_demand",
                                 f"sum {flows.sum()!r} vs demand {demand!r}"))
    c_opt = lat.cost(opt)
    c_ind = lat.cost(induced)
    if _rel(c_opt, report.optimum_cost) > REL_TOL:
        fails.append(Failure("wrong", "optimum_cost",
                             f"recomputed {c_opt!r} vs reported "
                             f"{report.optimum_cost!r}"))
    if _rel(c_ind, report.induced_cost) > REL_TOL:
        fails.append(Failure("wrong", "induced_cost",
                             f"recomputed {c_ind!r} vs reported "
                             f"{report.induced_cost!r}"))
    if not price_of_optimum:
        return fails
    beta = report.beta
    if beta is None or not 0.0 <= beta <= 1.0:
        fails.append(Failure("wrong", "beta_range", f"beta {beta!r}"))
        return fails
    if _rel(c_ind, c_opt) > REL_TOL:
        fails.append(Failure("accuracy", "induced_equals_optimum",
                             f"C(S+T) {c_ind!r} vs C(O) {c_opt!r}"))
    on_optimum = np.isclose(leader, opt, rtol=1e-12, atol=1e-15)
    if not np.all(on_optimum | (np.abs(leader) <= 1e-15)):
        fails.append(Failure("wrong", "leader_plays_optimum",
                             "leader flow neither 0 nor o_i on some link"))
    if abs(float(leader.sum()) - beta * demand) > REL_TOL * demand:
        fails.append(Failure("wrong", "leader_controls_beta",
                             f"sum S {leader.sum()!r} vs beta*r "
                             f"{beta * demand!r}"))
    if check_beta:
        expected = beta_by_min_latency(lat, opt, demand)
        if abs(expected - beta) > REL_TOL:
            fails.append(Failure("accuracy", "beta_characterisation",
                                 f"beta {beta!r} vs 1 - o(U)/r {expected!r}"))
    return fails


# --------------------------------------------------------------------------- #
# Networks
# --------------------------------------------------------------------------- #
def _node_key(node) -> str:
    return json.dumps(node)


def network_relative_gap(inst: Dict, flows: np.ndarray,
                         lat: Latencies) -> float:
    """Relative gap of a system-optimum candidate: ``(c.f - sum_k d_k
    dist_k) / c.f`` with ``c`` the marginal costs at ``f`` and ``dist_k``
    the shortest source-sink distance under ``c``."""
    nodes: Dict[str, int] = {}
    for edge in inst["edges"]:
        for end in ("tail", "head"):
            nodes.setdefault(_node_key(edge[end]), len(nodes))
    tails = np.array([nodes[_node_key(e["tail"])] for e in inst["edges"]])
    heads = np.array([nodes[_node_key(e["head"])] for e in inst["edges"]])
    marginal = lat.marginals(flows)
    if not np.all(np.isfinite(marginal)) or marginal.min() < 0.0:
        return float("inf")
    n = len(nodes)
    # Parallel edges: keep the cheapest, which is what a shortest path uses.
    best: Dict[tuple, float] = {}
    for t, h, c in zip(tails, heads, marginal):
        key = (int(t), int(h))
        best[key] = min(best.get(key, np.inf), float(c))
    rows = np.array([k[0] for k in best], dtype=np.intp)
    cols = np.array([k[1] for k in best], dtype=np.intp)
    # csgraph treats explicit zeros as missing edges; a tiny positive weight
    # keeps zero-cost edges in the graph without moving any distance.
    weights = np.maximum(np.array(list(best.values())), 1e-300)
    graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
    total = float(np.dot(marginal, flows))
    lower = 0.0
    for com in inst["commodities"]:
        src = nodes[_node_key(com["source"])]
        dist = dijkstra(graph, directed=True, indices=src)
        lower += float(com["demand"]) * float(dist[nodes[_node_key(com["sink"])]])
    return (total - lower) / total if total > 0 else 0.0


def _imbalance(inst: Dict, flows: np.ndarray) -> float:
    """Largest violation of flow conservation, relative to total demand."""
    balance: Dict[str, float] = {}
    for edge, f in zip(inst["edges"], flows):
        balance[_node_key(edge["tail"])] = balance.get(_node_key(edge["tail"]), 0.0) - f
        balance[_node_key(edge["head"])] = balance.get(_node_key(edge["head"]), 0.0) + f
    for com in inst["commodities"]:
        d = float(com["demand"])
        balance[_node_key(com["source"])] = balance.get(_node_key(com["source"]), 0.0) + d
        balance[_node_key(com["sink"])] = balance.get(_node_key(com["sink"]), 0.0) - d
    total = sum(float(com["demand"]) for com in inst["commodities"])
    return max(abs(v) for v in balance.values()) / total


def check_network(report) -> tuple:
    """Checks for a MOP report on a single- or multi-commodity network.

    Returns ``(failures, gap)`` where ``gap`` is the benchmark's own
    relative gap of the reported optimum.
    """
    inst = report.instance
    lat = Latencies([e["latency"] for e in inst["edges"]])
    opt = np.asarray(report.optimum_flows, dtype=float)
    induced = np.asarray(report.induced_flows, dtype=float)
    leader = np.asarray(report.leader_flows, dtype=float)
    fails: List[Failure] = []
    total = sum(float(com["demand"]) for com in inst["commodities"])
    floor = -1e-12 * max(1.0, total)
    for name, flows in (("optimum", opt), ("induced", induced),
                        ("leader", leader)):
        if flows.shape != (lat.size,):
            fails.append(Failure("wrong", f"{name}_shape",
                                 f"{flows.shape} vs {lat.size} edges"))
            return fails, float("inf")
        if flows.min() < floor:
            fails.append(Failure("wrong", f"{name}_nonnegative",
                                 f"min flow {flows.min():.3e}"))
    for name, flows in (("optimum", opt), ("induced", induced)):
        gap = _imbalance(inst, flows)
        if gap > NETWORK_REL_TOL:
            fails.append(Failure("wrong", f"{name}_balance",
                                 f"max node imbalance {gap:.3e} of demand"))
    c_opt = lat.cost(opt)
    c_ind = lat.cost(induced)
    if _rel(c_opt, report.optimum_cost) > REL_TOL:
        fails.append(Failure("wrong", "optimum_cost",
                             f"recomputed {c_opt!r} vs reported "
                             f"{report.optimum_cost!r}"))
    if _rel(c_ind, report.induced_cost) > REL_TOL:
        fails.append(Failure("wrong", "induced_cost",
                             f"recomputed {c_ind!r} vs reported "
                             f"{report.induced_cost!r}"))
    beta = report.beta
    if beta is None or not 0.0 <= beta <= 1.0:
        fails.append(Failure("wrong", "beta_range", f"beta {beta!r}"))
    if np.any(leader > opt + 1e-9 * max(1.0, total)):
        fails.append(Failure("wrong", "leader_within_optimum",
                             "leader flow exceeds the optimum on an edge"))
    gap = network_relative_gap(inst, opt, lat)
    if not gap <= NETWORK_GAP_MAX:
        fails.append(Failure("accuracy", "optimum_relative_gap",
                             f"relative gap {gap:.3e} > {NETWORK_GAP_MAX:g}"))
    if _rel(c_ind, c_opt) > NETWORK_REL_TOL:
        fails.append(Failure("accuracy", "induced_equals_optimum",
                             f"C(S+T) {c_ind!r} vs C(O) {c_opt!r}"))
    return fails, gap


# --------------------------------------------------------------------------- #
# Cross-run comparisons
# --------------------------------------------------------------------------- #
def check_same_report(got, want, *, check: str) -> List[Failure]:
    """``got`` must carry the same answer as ``want`` (served vs in-process,
    resumed vs cold): instance, beta, costs and every flow vector."""
    fields = ("instance", "strategy", "beta", "alpha", "optimum_cost",
              "induced_cost", "optimum_flows", "induced_flows", "leader_flows")
    diff = [name for name in fields
            if getattr(got, name) != getattr(want, name)]
    if diff:
        return [Failure("wrong", check, f"fields differ: {', '.join(diff)}")]
    return []


def check_bitwise(got_json: str, want_json: str, *, check: str) -> List[Failure]:
    """Bit-for-bit equality of two serialised reports."""
    if got_json != want_json:
        return [Failure("wrong", check, "serialised reports differ")]
    return []
