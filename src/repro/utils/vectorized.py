"""Array-level numeric kernels backing the vectorized solver layer.

These helpers are the NumPy counterparts of :mod:`repro.utils.rootfind`: the
same monotone-root problems, solved for *every component of an array at once*
instead of one scalar at a time.  They carry the vectorized water-filling
solver (:func:`repro.equilibrium.parallel.water_fill_many`) and the batched
latency inverses of :class:`repro.latency.batch.LatencyBatch`.

* :func:`piecewise_linear_levels` — the exact sorted-breakpoint closed form
  for the common level of an all-linear water-filling problem, for a batch
  of demands over the same links (prefix sums, no iteration at all);
* :func:`sorted_breakpoint_levels` — the one *level engine* for every other
  set of strictly increasing links: an index search over the sorted
  activation breakpoints locates each demand's active segment, then a few
  safeguarded Newton steps finish inside it; every search pass and Newton
  iteration evaluates all pending demands in one call;
* :func:`vectorized_bisect` — guarded bisection on arrays of brackets, one
  array op per step for all components simultaneously;
* :func:`expand_upper_brackets` — geometric bracket expansion, masked so that
  already-bracketed components stop evaluating.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Tuple

import numpy as np

from repro.exceptions import ConvergenceError, ModelError

__all__ = [
    "SEARCH_ELEMENTS",
    "piecewise_linear_levels",
    "sorted_breakpoint_levels",
    "vectorized_bisect",
    "expand_upper_brackets",
]

#: Level x closed-form-row elements one segment-search pass of
#: :func:`sorted_breakpoint_levels` may evaluate.  A pass probes
#: ``SEARCH_ELEMENTS // rows`` breakpoints per demand, so a small link system
#: finds its segment in one broadcast over every breakpoint and a large one
#: in O(log m) narrowing passes, never through an O(m^2) grid.
SEARCH_ELEMENTS = 4096


def piecewise_linear_levels(weights: np.ndarray, breakpoints: np.ndarray,
                            demands: np.ndarray) -> np.ndarray:
    """Exact levels ``L_j`` with ``sum_i w_i * max(0, L_j - b_i) = demand_j``.

    This is the closed form of water filling over links whose level functions
    are affine: link ``i`` absorbs ``w_i * (L - b_i)`` once the common level
    ``L`` exceeds its breakpoint ``b_i`` (for a latency ``a x + b`` the weight
    is ``1/a`` when equalising latencies and ``1/(2a)`` when equalising
    marginal costs).  Sorting the breakpoints makes the total filled flow a
    piecewise-linear increasing function of ``L``; prefix sums plus one
    ``searchsorted`` find the segment containing every demand exactly, so
    ``K`` demands over ``m`` links cost O(m log m + K log m).

    ``weights`` must be positive and ``demands`` non-negative.
    """
    demands = np.asarray(demands, dtype=float)
    if demands.ndim != 1:
        raise ModelError("piecewise_linear_levels needs a 1-d demand array")
    if (demands < 0.0).any():
        raise ModelError("demands must be >= 0")
    weights = np.asarray(weights, dtype=float)
    breakpoints = np.asarray(breakpoints, dtype=float)
    if weights.shape != breakpoints.shape or weights.ndim != 1 or weights.size == 0:
        raise ModelError(
            "piecewise_linear_levels needs matching 1-d weights/breakpoints")
    if (weights <= 0.0).any():
        raise ModelError("piecewise_linear_levels weights must be > 0")
    order = np.argsort(breakpoints, kind="stable")
    b = breakpoints[order]
    w = weights[order]
    cum_w = np.cumsum(w)
    cum_wb = np.cumsum(w * b)
    # Total filled flow at each breakpoint (0 at the smallest one): the
    # prefix sums *include* link j, whose own contribution at its breakpoint
    # is zero, so the formula is exact.
    filled_at_breaks = cum_w * b - cum_wb
    k = np.searchsorted(filled_at_breaks, demands, side="right") - 1
    np.maximum(k, 0, out=k)
    return (demands + cum_wb[k]) / cum_w[k]


def _validated_breakpoints(breakpoints: np.ndarray) -> np.ndarray:
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    if bp.size == 0:
        raise ModelError("the breakpoint engine needs at least one breakpoint")
    # Sorted, with any NaN last: the two ends decide finiteness.
    if not (math.isfinite(bp[0]) and math.isfinite(bp[-1])):
        raise ModelError("activation breakpoints must be finite")
    return bp


def sorted_breakpoint_levels(
        breakpoints: np.ndarray, demands: np.ndarray,
        flow: Callable[[np.ndarray], np.ndarray],
        flow_dflow: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]], *,
        rows: int, numeric: bool = False, cap: float = math.inf,
        tol: float = 1e-12, max_expansions: int = 200,
        max_iter: int = 200) -> np.ndarray:
    """Levels ``L_j`` with ``flow(L_j) = demands[j]``, capped at ``cap``.

    The sorted-breakpoint water-filling engine.  ``breakpoints`` are the
    free-flow activation levels of the links (duplicates are fine);
    ``flow(levels)`` maps an array of candidate levels to the total filled
    flow at each of them, must be non-decreasing and is zero at the smallest
    breakpoint; ``flow_dflow(levels)`` returns ``(flow, d flow / dL)`` in
    one fused evaluation (a NaN derivative turns that Newton step into a
    bisection step).

    Segment location depends only on the input.  Each pass probes up to
    ``SEARCH_ELEMENTS // rows`` breakpoints spread evenly over every open
    demand's index range, where ``rows`` is the number of closed-form rows
    one level evaluation broadcasts over; all probes of a pass are
    evaluated in one call.  When the whole breakpoint set fits, that is one
    broadcast; otherwise it is O(log m) narrowing passes.  ``numeric=True``
    (rows inverted level by level) probes one breakpoint per pass: plain
    index bisection.  Inside the located segment a safeguarded Newton
    iteration — a Newton step when it stays inside the bracket, a bisection
    step otherwise — starts from the secant of the two endpoint flows and
    stops once the bracket is narrower than ``tol * scale`` (the stopping
    rule of :func:`repro.utils.rootfind.bisect_root`) or the Newton
    correction is below half of that.  Every iteration evaluates the pending
    demands in one call; the per-demand bracket bookkeeping is scalar.

    A finite ``cap`` (the cheapest constant-latency sink) is the top of the
    search: a demand the links cannot absorb below it gets ``L_j = cap``
    exactly.  Without one, demands above the top breakpoint bracket their
    level by geometric expansion.

    Raises :class:`ConvergenceError` when an expansion finds no finite level
    absorbing a demand or when the flow evaluates to NaN.
    """
    demands = np.asarray(demands, dtype=float)
    if demands.ndim != 1:
        raise ModelError("sorted_breakpoint_levels needs a 1-d demand array")
    if (demands < 0.0).any():
        raise ModelError("demands must be >= 0")
    bp = _validated_breakpoints(breakpoints)
    if math.isfinite(cap):
        # Links activating at or above the cap never carry flow.
        bp = np.append(bp[:np.searchsorted(bp, cap)], cap)
        if bp.size == 1:
            return np.full(demands.size, float(cap))
    if demands.size == 0:
        return np.empty(0)
    n = bp.size
    per_pass = 1 if numeric else max(1, SEARCH_ELEMENTS // max(rows, 1))
    targets = demands.tolist()
    count = len(targets)

    # Segment search.  Per demand: flow(bp[k_lo]) <= demand < flow(bp[k_hi]),
    # where k_hi == n stands for "above the top breakpoint".
    k_lo, k_hi = [0] * count, [n] * count
    f_lo, f_hi = [0.0] * count, [math.nan] * count
    pending = list(range(count)) if n > 1 else []
    while pending:
        p = min(per_pass, max(k_hi[j] - k_lo[j] for j in pending) - 1)
        probes = {j: sorted({k_lo[j] + (k_hi[j] - k_lo[j]) * i // (p + 1)
                             for i in range(1, p + 1)}) for j in pending}
        shared = sorted(set().union(*probes.values()))
        values = np.asarray(flow(bp[shared]), dtype=float)
        if np.isnan(values).any():
            raise ConvergenceError(
                "water-filling flow evaluated to NaN during the level solve")
        at = dict(zip(shared, values.tolist()))
        for j in pending:
            # Probes are sorted and the flow is monotone: the probes at or
            # below the demand form a prefix.
            idx = probes[j]
            vals = [at[i] for i in idx]
            c = bisect.bisect_right(vals, targets[j])
            if c:
                k_lo[j], f_lo[j] = idx[c - 1], vals[c - 1]
            if c < len(idx):
                k_hi[j], f_hi[j] = idx[c], vals[c]
        pending = [j for j in pending if k_hi[j] - k_lo[j] > 1]

    capped = math.isfinite(cap)
    levels = bp[k_lo]
    upper = bp[np.minimum(k_hi, n - 1)]
    top = [] if capped else [j for j in range(count) if k_hi[j] == n]
    if top:
        upper[top] = expand_upper_brackets(
            lambda h: np.asarray(flow(h), dtype=float) - demands[top],
            levels[top], initial=np.maximum(1.0, np.abs(levels[top])),
            max_expansions=max_expansions)
    # Safeguarded Newton per demand: [index, x, lo, hi, scale].
    work = []
    for j, lo, hi in zip(range(count), levels.tolist(), upper.tolist()):
        g_lo = f_lo[j] - targets[j]
        if (capped and k_lo[j] == n - 1) or g_lo >= 0.0:
            # Saturated at the cap, or (through rounding at the smallest
            # breakpoint) already filled to the demand at ``lo``.
            continue
        # Secant start from the endpoint flows the search already knows
        # (unknown above the top breakpoint: NaN falls back to the midpoint).
        g_hi = f_hi[j] - targets[j]
        x = 0.5 * (lo + hi)
        if g_hi > g_lo:
            secant = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            if lo < secant < hi:
                x = secant
        work.append([j, x, lo, hi, max(1.0, abs(lo), abs(hi))])
    for _ in range(max_iter):
        if not work:
            break
        flows, dflows = flow_dflow(np.array([w[1] for w in work]))
        still = []
        for w, f, d in zip(work, np.asarray(flows, dtype=float).tolist(),
                            np.asarray(dflows, dtype=float).tolist()):
            j, x, lo, hi, scale = w
            g = f - targets[j]
            if math.isnan(g):
                raise ConvergenceError(
                    "water-filling flow evaluated to NaN during the level "
                    "solve")
            if g < 0.0:
                lo = x
            else:
                hi = x
            step = -g / d if d > 0.0 and math.isfinite(d) else math.nan
            levels[j] = x
            if g == 0.0 or abs(step) <= 0.5 * tol * scale:
                # ``x`` already is the level, even when rounding would put
                # ``x + step`` beyond a bracket end (the secant start often
                # lands on the root).
                continue
            if hi - lo <= tol * scale:
                levels[j] = 0.5 * (lo + hi)
                continue
            x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
            still.append([j, x, lo, hi, scale])
        work = still
    for j, x, _, _, _ in work:
        levels[j] = x
    return levels


def vectorized_bisect(func: Callable[[np.ndarray], np.ndarray],
                      lo: np.ndarray, hi: np.ndarray, *,
                      tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
    """Elementwise root of ``func(x) = 0`` for componentwise non-decreasing ``func``.

    The arrays ``lo``/``hi`` bracket a root in every component
    (``func(lo) <= 0 <= func(hi)`` up to a small slack, as in
    :func:`repro.utils.rootfind.bisect_root`).  Each bisection step evaluates
    ``func`` once on the full midpoint array, so the per-step cost is one
    vectorized call instead of ``m`` scalar ones.

    NaN midpoint values raise :class:`ConvergenceError` immediately: NaN
    compares false against everything, so treating it like an ordinary
    value would silently move ``hi`` down and collapse the bracket onto an
    invalid point (e.g. an M/M/1 latency probed at or beyond capacity).
    ``+inf``, by contrast, is a legitimate "above the root" signal (an
    overflowing polynomial evaluated at a huge trial load) and keeps its
    ordinary comparison semantics.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    if lo.shape != hi.shape:
        raise ModelError("vectorized_bisect needs matching bracket shapes")
    if lo.size == 0:
        return lo
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        vals = np.asarray(func(mid))
        if np.any(np.isnan(vals)):
            raise ConvergenceError(
                "vectorized_bisect: func(mid) produced NaN; the bracket "
                "would silently collapse onto an invalid domain point")
        below = vals < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= tol * scale):
            break
    return 0.5 * (lo + hi)


def expand_upper_brackets(func: Callable[[np.ndarray], np.ndarray],
                          lo: np.ndarray, *, initial: float = 1.0,
                          factor: float = 2.0,
                          max_expansions: int = 200) -> np.ndarray:
    """Per-component ``hi > lo`` with ``func(hi) >= 0`` by geometric expansion.

    The vectorized analogue of :func:`repro.utils.rootfind.expand_upper_bracket`:
    components that already satisfy ``func(hi) >= 0`` are frozen while the
    rest keep doubling.  Frozen components are *not* re-evaluated — each
    iteration probes them at their known-good ``lo`` instead of their frozen
    ``hi``, so a component already bracketed near its domain boundary (an
    M/M/1 row frozen at its capacity) costs no wasted work and can never
    raise a spurious domain error on behalf of the rows still expanding.
    Raises :class:`ConvergenceError` when some component fails to bracket
    after ``max_expansions`` doublings.
    """
    lo = np.asarray(lo, dtype=float)
    hi = lo + initial
    if lo.size == 0:
        return hi
    pending = np.ones(lo.shape, dtype=bool)
    for _ in range(max_expansions):
        probe = np.where(pending, hi, lo)
        pending &= np.asarray(func(probe)) < 0.0
        if not np.any(pending):
            return hi
        hi = np.where(pending, lo + (hi - lo) * factor, hi)
    raise ConvergenceError(
        f"could not bracket every root after {max_expansions} expansions",
        iterations=max_expansions,
    )
