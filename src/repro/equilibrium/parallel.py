"""Exact water-filling solvers for parallel-link instances.

A Nash (Wardrop) equilibrium on parallel links equalises *latencies* on used
links (Remark 4.1); a system optimum equalises *marginal costs* (the KKT
condition of minimising the convex cost ``sum_i x_i l_i(x_i)`` over the
simplex).  In both cases the flow on every strictly increasing link is a
non-decreasing function of the common level, so the level solves a monotone
scalar equation.

Two backends compute that level:

* ``"vectorized"`` (the default) works on a
  :class:`~repro.latency.batch.LatencyBatch` and solves every demand of a
  call together.  When every increasing link is affine the level has an
  exact prefix-sum closed form
  (:func:`repro.utils.vectorized.piecewise_linear_levels`).  Every other set
  of increasing links — mixed closed-form families, multi-term polynomials,
  shifted powers under marginal cost, generic-bucket links — goes through
  the one sorted-breakpoint level engine
  (:func:`repro.utils.vectorized.sorted_breakpoint_levels`): an index
  search over the sorted activation breakpoints (one broadcast when the
  closed-form rows times the breakpoints fit
  :data:`~repro.utils.vectorized.SEARCH_ELEMENTS`, O(log m) narrowing
  passes otherwise, plain bisection when some rows are inverted level by
  level) locates the active segment, and a few safeguarded Newton steps
  finish inside it; no flow grid is built or cached.
* ``"reference"`` is the original scalar implementation (per-link Python
  lambdas inside the bisection); it remains selectable through
  ``SolveConfig(kernel_backend="reference")`` and anchors the equivalence
  test-suite.

:func:`water_fill` is :func:`water_fill_many` with one demand.

Constant-latency links (the documented extension; Pigou's example uses one)
act as flow sinks: the cheapest constant caps the common level of the
increasing links, and once they cannot absorb the demand below it the
corresponding links take the excess flow at that fixed latency.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import SolveConfig

from repro.exceptions import ConvergenceError, ModelError
from repro.latency.base import LatencyFunction
from repro.latency.batch import LatencyBatch
from repro.network.parallel import ParallelLinkInstance
from repro.obs.profiling import active as _profiling_active
from repro.equilibrium.result import ParallelFlowResult
from repro.utils.rootfind import bisect_root, expand_upper_bracket
from repro.utils.vectorized import (
    piecewise_linear_levels,
    sorted_breakpoint_levels,
)

__all__ = ["parallel_nash", "parallel_optimum", "water_fill",
           "water_fill_many", "WATER_FILL_BACKENDS"]

#: Backends accepted by :func:`water_fill` (``"auto"`` means vectorized).
WATER_FILL_BACKENDS = ("auto", "vectorized", "reference")


def _link_level_and_inverse(kind: str) -> Tuple[Callable[[LatencyFunction, float], float],
                                                Callable[[LatencyFunction, float], float]]:
    """Per-link level function and its inverse for the requested solve kind."""
    if kind == "nash":
        return (lambda lat, x: float(lat.value(x)),
                lambda lat, y: float(lat.inverse_value(y)))
    if kind == "optimum":
        return (lambda lat, x: float(lat.marginal_cost(x)),
                lambda lat, y: float(lat.inverse_marginal(y)))
    raise ModelError(f"unknown water-filling kind {kind!r}")


def water_fill(latencies: Sequence[LatencyFunction], demand: float,
               kind: str, *, tol: float = 1e-12, backend: str = "auto",
               batch: Optional[LatencyBatch] = None) -> Tuple[np.ndarray, float]:
    """Distribute ``demand`` across ``latencies`` equalising the chosen level.

    ``kind`` is ``"nash"`` (equalise latencies) or ``"optimum"`` (equalise
    marginal costs).  ``backend`` selects the vectorized kernel (``"auto"`` /
    ``"vectorized"``) or the scalar ``"reference"`` implementation; a prebuilt
    ``batch`` over the same latencies avoids re-grouping on repeated solves.
    Returns ``(flows, common_level)`` where ``common_level`` is the equalised
    value on loaded links; unloaded links have a level at least as large.
    This is :func:`water_fill_many` with the one demand.

    When profiling is active (``SolveConfig(profile=True)`` or a tracing
    service batch) each call reports a ``water_fill[<kind>]`` phase; when
    it is not — the default — the overhead is the one ``is None`` check
    on the recorder lookup.
    """
    flows, levels = _profiled(f"water_fill[{kind}]", latencies, [demand],
                              kind, tol, backend, batch)
    return flows[0], float(levels[0])


def water_fill_many(latencies: Sequence[LatencyFunction],
                    demands: Sequence[float], kind: str, *,
                    tol: float = 1e-12, backend: str = "auto",
                    batch: Optional[LatencyBatch] = None,
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`water_fill`: many demands over one link system at once.

    Solves the water-filling problem for every entry of ``demands`` over the
    *same* latencies — the shape of a coalesced service micro-batch, a
    ``StudySpec`` demand axis or an elastic-demand trace.  Returns
    ``(flows, levels)`` with ``flows`` of shape ``(len(demands), m)`` and one
    common level per demand; row ``j`` equals
    ``water_fill(latencies, demands[j], kind)``.

    The vectorized backend shares all demand-independent structure across the
    batch: the family grouping and the sorted activation breakpoints are
    computed once, each segment-search pass evaluates the breakpoints every
    pending demand probes in one broadcast, and the safeguarded Newton
    iterations run for all pending demands simultaneously.  The
    ``"reference"`` backend is a per-demand loop.

    Raises :class:`~repro.exceptions.ModelError` if *any* demand cannot be
    routed (no constant links and the increasing links saturate at or below
    it), and lets a :class:`~repro.exceptions.ConvergenceError` from the
    level solve propagate.
    """
    return _profiled(f"water_fill_many[{kind}]", latencies, demands, kind,
                     tol, backend, batch)


def _profiled(phase: str, latencies, demands, kind: str, tol: float,
              backend: str, batch: Optional[LatencyBatch],
              ) -> Tuple[np.ndarray, np.ndarray]:
    recorder = _profiling_active()
    if recorder is None:
        return _water_fill_many(latencies, demands, kind, tol=tol,
                                backend=backend, batch=batch)
    start = time.perf_counter()
    try:
        return _water_fill_many(latencies, demands, kind, tol=tol,
                                backend=backend, batch=batch)
    finally:
        recorder.note(phase, time.perf_counter() - start)


def _water_fill_many(latencies: Sequence[LatencyFunction],
                     demands: Sequence[float], kind: str, *,
                     tol: float, backend: str,
                     batch: Optional[LatencyBatch],
                     ) -> Tuple[np.ndarray, np.ndarray]:
    if backend not in WATER_FILL_BACKENDS:
        raise ModelError(
            f"unknown water_fill backend {backend!r}; expected one of "
            f"{', '.join(WATER_FILL_BACKENDS)}")
    _link_level_and_inverse(kind)  # validate ``kind`` before any work
    demands = np.asarray(demands, dtype=float)
    if demands.ndim != 1:
        raise ModelError(
            f"water_fill_many needs a 1-d demand array, got shape "
            f"{demands.shape}")
    if (demands < 0.0).any():
        raise ModelError(f"demands must be >= 0, got {demands[demands < 0.0]}")
    if backend == "reference":
        latencies = list(latencies)
        flows = np.zeros((demands.shape[0], len(latencies)))
        levels = np.empty(demands.shape[0])
        for j, d in enumerate(demands):
            flows[j], levels[j] = _water_fill_reference(
                latencies, float(d), kind, tol=tol)
        return flows, levels

    if batch is None:
        batch = LatencyBatch(latencies)
    if batch.size == 0:
        raise ModelError("water_fill needs at least one link")
    level_at_zero = batch.values_at_zero
    flows = np.zeros((demands.shape[0], batch.size), dtype=float)
    levels = np.full(demands.shape[0], float(level_at_zero.min()))
    positive = np.flatnonzero(demands > 0.0)
    if positive.size == 0:
        return flows, levels

    const_mask = batch.is_constant
    has_constants = bool(const_mask.any())
    # The cheapest constant caps the level of the increasing links: above
    # it the constant sinks absorb the excess.
    floor = float(level_at_zero[const_mask].min()) if has_constants \
        else float("inf")
    routed = demands[positive]
    all_constant = bool(const_mask.all())
    linear = None if all_constant else batch.linear_increasing_params()
    if all_constant:
        levels[positive] = floor
    elif linear is not None:
        slopes, intercepts, _ = linear
        weights = 1.0 / slopes if kind == "nash" else 1.0 / (2.0 * slopes)
        levels[positive] = np.minimum(
            piecewise_linear_levels(weights, intercepts, routed), floor)
    else:
        if not has_constants and float(routed.max()) >= float(
                batch.domain_upper[~const_mask].sum()):
            raise ModelError(
                "demand cannot be routed: no constant links and the "
                "increasing links cannot absorb the demand")
        profile = batch.level_profile(kind)
        levels[positive] = sorted_breakpoint_levels(
            profile.grid(), routed, profile.flow, profile.flow_dflow,
            rows=profile.rows, numeric=profile.has_numeric, cap=floor,
            tol=tol)

    # Constant rows invert to 0; at the floor the sinks take the rest.
    inverse = batch.inverse_values if kind == "nash" else batch.inverse_marginals
    for j, demand, level in zip(positive.tolist(), routed.tolist(),
                                levels[positive].tolist()):
        flows[j] = inverse(level)
        if level >= floor:
            sinks = const_mask & (level_at_zero <= floor + 1e-12)
            leftover = max(0.0, demand - float(flows[j].sum()))
            flows[j, sinks] = leftover / int(np.count_nonzero(sinks))
        flows[j] = _normalise_total(flows[j], demand)
    return flows, levels


def _normalise_total(flows: np.ndarray, demand: float) -> np.ndarray:
    """Spread tiny rounding over loaded links so flows sum exactly to demand."""
    total = float(flows.sum())
    if total > 0.0 and abs(total - demand) > 0.0:
        correction = demand - total
        loaded = flows > 0.0
        if np.any(loaded):
            flows[loaded] += correction * flows[loaded] / flows[loaded].sum()
    return np.clip(flows, 0.0, None)


def _water_fill_reference(latencies: Sequence[LatencyFunction], demand: float,
                          kind: str, *, tol: float = 1e-12,
                          ) -> Tuple[np.ndarray, float]:
    """The scalar water-filling solver (per-link Python calls; the seed code)."""
    latencies = list(latencies)
    m = len(latencies)
    if m == 0:
        raise ModelError("water_fill needs at least one link")
    if demand < 0.0:
        raise ModelError(f"demand must be >= 0, got {demand!r}")
    level_of, inverse_of = _link_level_and_inverse(kind)

    flows = np.zeros(m, dtype=float)
    if demand == 0.0:
        level = min(level_of(lat, 0.0) for lat in latencies)
        return flows, level

    increasing: List[int] = [i for i, lat in enumerate(latencies)
                             if not lat.is_constant]
    constants: List[int] = [i for i, lat in enumerate(latencies) if lat.is_constant]

    def filled_at(level: float) -> float:
        return sum(inverse_of(latencies[i], level) for i in increasing)

    constant_floor = min((level_of(latencies[i], 0.0) for i in constants),
                         default=float("inf"))

    if increasing:
        lo = min(level_of(latencies[i], 0.0) for i in increasing)
        # Bracket the level at which the increasing links alone absorb the demand.
        try:
            hi = expand_upper_bracket(lambda lv: filled_at(lv) - demand, lo,
                                      initial=max(1.0, abs(lo)))
            level_star = bisect_root(lambda lv: filled_at(lv) - demand, lo, hi, tol=tol)
        except (ModelError, ConvergenceError):
            level_star = float("inf")
    else:
        level_star = float("inf")

    if level_star <= constant_floor:
        # The strictly increasing links absorb everything below the cheapest
        # constant link; constants stay empty.
        for i in increasing:
            flows[i] = inverse_of(latencies[i], level_star)
        level = level_star
    else:
        # Constants at the floor latency absorb the excess flow.
        if not constants:
            raise ModelError(
                "demand cannot be routed: no constant links and the increasing "
                "links cannot absorb the demand")
        level = constant_floor
        for i in increasing:
            flows[i] = inverse_of(latencies[i], level)
        leftover = demand - float(flows.sum())
        if leftover < 0.0:
            leftover = 0.0
        sinks = [i for i in constants
                 if level_of(latencies[i], 0.0) <= constant_floor + 1e-12]
        share = leftover / len(sinks)
        for i in sinks:
            flows[i] = share

    return _normalise_total(flows, demand), float(level)


def _resolve_tol(tol: "float | None", config: "SolveConfig | None") -> float:
    """Water-filling tolerance: explicit ``tol`` wins, then config, then default."""
    if tol is not None:
        return tol
    if config is not None:
        return config.water_fill_tol
    return 1e-12


def _resolve_backend(backend: "str | None", config: "SolveConfig | None") -> str:
    """Kernel backend: explicit ``backend`` wins, then config, then vectorized."""
    if backend is not None:
        return backend
    if config is not None:
        return config.kernel_backend
    return "auto"


def parallel_nash(instance: ParallelLinkInstance, *, tol: "float | None" = None,
                  config: "SolveConfig | None" = None,
                  backend: "str | None" = None) -> ParallelFlowResult:
    """The Nash (Wardrop) equilibrium ``N`` of a parallel-link instance.

    All loaded links share the common latency ``L_N`` returned in
    ``common_value``; empty links have latency at least ``L_N`` (Remark 4.1).
    The flow is unique on strictly increasing links.  Settings may come from
    an explicit ``tol``/``backend`` or a :class:`repro.api.SolveConfig`.
    """
    tol = _resolve_tol(tol, config)
    backend = _resolve_backend(backend, config)
    flows, level = water_fill(
        instance.latencies, instance.demand, "nash", tol=tol, backend=backend,
        batch=None if backend == "reference" else instance.latency_batch())
    return ParallelFlowResult(
        flows=flows,
        common_value=level,
        cost=instance.cost(flows),
        beckmann=instance.beckmann(flows),
        kind="nash",
    )


def parallel_optimum(instance: ParallelLinkInstance, *, tol: "float | None" = None,
                     config: "SolveConfig | None" = None,
                     backend: "str | None" = None) -> ParallelFlowResult:
    """The system optimum ``O`` of a parallel-link instance.

    All loaded links share the common marginal cost returned in
    ``common_value``; empty links have marginal cost at least that value.
    Settings may come from an explicit ``tol``/``backend`` or a
    :class:`repro.api.SolveConfig`.
    """
    tol = _resolve_tol(tol, config)
    backend = _resolve_backend(backend, config)
    flows, level = water_fill(
        instance.latencies, instance.demand, "optimum", tol=tol, backend=backend,
        batch=None if backend == "reference" else instance.latency_batch())
    return ParallelFlowResult(
        flows=flows,
        common_value=level,
        cost=instance.cost(flows),
        beckmann=instance.beckmann(flows),
        kind="optimum",
    )
