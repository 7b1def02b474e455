"""Tests for the vectorized numeric kernels (`repro.utils.vectorized`).

Covers the sorted-breakpoint level engine (one demand and many, its segment
search rule and its constant-sink cap), the exact all-linear closed form,
and the two kernel bug regressions: the NaN guard in ``vectorized_bisect``
and the frozen-row probing of ``expand_upper_brackets``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ModelError
from repro.utils.vectorized import (
    SEARCH_ELEMENTS,
    expand_upper_brackets,
    piecewise_linear_levels,
    sorted_breakpoint_levels,
    vectorized_bisect,
)


def _affine_level(weights, breaks, demand):
    """Scalar oracle: the level ``L`` with ``sum w_i max(0, L - b_i) = demand``.

    Activates links in breakpoint order until the next breakpoint would
    over-fill the demand.
    """
    order = np.argsort(breaks, kind="stable")
    w_sum = wb_sum = 0.0
    level = float(breaks[order[0]])
    for pos, i in enumerate(order):
        w_sum += float(weights[i])
        wb_sum += float(weights[i] * breaks[i])
        level = (demand + wb_sum) / w_sum
        nxt = order[pos + 1] if pos + 1 < len(order) else None
        if nxt is None or level <= float(breaks[nxt]):
            return level
    return level


# --------------------------------------------------------------------------- #
# The affine closed form
# --------------------------------------------------------------------------- #
class TestPiecewiseLinearLevels:
    def test_matches_scalar_solve_per_demand(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.2, 3.0, size=15)
        breaks = rng.uniform(0.0, 2.0, size=15)
        demands = np.array([0.0, 0.3, 1.7, 8.0, 42.0])
        levels = piecewise_linear_levels(weights, breaks, demands)
        for demand, level in zip(demands, levels):
            assert level == pytest.approx(
                _affine_level(weights, breaks, float(demand)), rel=1e-14)
            assert piecewise_linear_levels(
                weights, breaks, np.array([demand]))[0] == level

    def test_rejects_bad_demands(self):
        with pytest.raises(ModelError):
            piecewise_linear_levels(np.ones(3), np.zeros(3), np.array([-1.0]))
        with pytest.raises(ModelError):
            piecewise_linear_levels(np.ones(3), np.zeros(3),
                                    np.array([[1.0, 2.0]]))


# --------------------------------------------------------------------------- #
# The sorted-breakpoint level engine, one demand at a time
# --------------------------------------------------------------------------- #
def _affine_flow(weights, breaks):
    """Vectorized total filled flow of affine links at each level."""
    def flow(levels):
        levels = np.asarray(levels, dtype=float)
        return (np.maximum(levels[:, None] - breaks, 0.0) * weights).sum(axis=1)
    return flow


def _affine_dflow(weights, breaks):
    def dflow(levels):
        levels = np.asarray(levels, dtype=float)
        return ((levels[:, None] > breaks) * weights).sum(axis=1)
    return dflow


def _fused(flow, dflow=None):
    """A ``flow_dflow`` callable; no ``dflow`` means NaN (bisection steps)."""
    def flow_dflow(levels):
        values = flow(levels)
        if dflow is None:
            return values, np.full(values.shape, np.nan)
        return values, dflow(levels)
    return flow_dflow


def _solve_one(breaks, demand, flow, flow_dflow=None, **kwargs):
    kwargs.setdefault("rows", len(breaks))
    return float(sorted_breakpoint_levels(
        breaks, np.array([demand]), flow,
        flow_dflow if flow_dflow is not None else _fused(flow),
        **kwargs)[0])


class TestSortedBreakpointLevel:
    weights = np.array([1.0, 0.5, 2.0, 0.25])
    breaks = np.array([0.0, 1.0, 1.0, 3.0])  # duplicate breakpoint on purpose

    def test_matches_exact_affine_solution(self):
        flow = _affine_flow(self.weights, self.breaks)
        for demand in (0.5, 1.0, 2.5, 7.0, 100.0):
            level = _solve_one(self.breaks, demand, flow)
            assert level == pytest.approx(
                _affine_level(self.weights, self.breaks, demand), rel=1e-10)

    def test_newton_matches_bisection_only(self):
        flow = _affine_flow(self.weights, self.breaks)
        dflow = _affine_dflow(self.weights, self.breaks)
        for demand in (0.5, 2.5, 42.0):
            plain = _solve_one(self.breaks, demand, flow)
            newton = _solve_one(self.breaks, demand, flow,
                                _fused(flow, dflow))
            assert newton == pytest.approx(plain, rel=1e-10)

    def test_search_rule_one_pass_narrowing_and_bisection_agree(self):
        # Few rows: every breakpoint fits one broadcast.  Many rows: one
        # probe per pass.  Numeric rows: plain index bisection.  The
        # located segment, hence the level, must not depend on the rule.
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.2, 3.0, size=60)
        breaks = rng.uniform(0.0, 5.0, size=60)
        flow = _affine_flow(weights, breaks)
        fused = _fused(flow, _affine_dflow(weights, breaks))
        calls = []

        def counted(levels):
            calls.append(len(levels))
            return flow(levels)

        for demand in (0.01, 3.0, 40.0, 500.0):
            exact = _affine_level(weights, breaks, demand)
            calls.clear()
            one = _solve_one(breaks, demand, counted, fused, rows=1)
            # One broadcast over the other breakpoints (then expansion
            # probes, one level each, for the demand above the top).
            assert calls[0] == 59 and set(calls[1:]) <= {1}
            calls.clear()
            narrow = _solve_one(breaks, demand, counted, fused,
                                rows=SEARCH_ELEMENTS // 8)
            assert max(calls) <= 8 and len(calls) > 1
            calls.clear()
            bisect = _solve_one(breaks, demand, counted, fused, rows=1,
                                numeric=True)
            assert set(calls) == {1}
            for level in (one, narrow, bisect):
                assert level == pytest.approx(exact, rel=1e-10)

    def test_numeric_rows_join_the_solve(self):
        # The last link's flow is supplied level by level (as numeric rows
        # are): the engine must still land on the exact affine level.
        affine = _affine_flow(self.weights[:3], self.breaks[:3])

        def flow(levels):
            numeric = np.array([self.weights[3] * max(level - self.breaks[3],
                                                      0.0)
                                for level in np.asarray(levels)])
            return affine(levels) + numeric

        for demand in (0.5, 2.5, 42.0):
            level = _solve_one(self.breaks, demand, flow, numeric=True)
            assert level == pytest.approx(
                _affine_level(self.weights, self.breaks, demand), rel=1e-10)

    def test_demand_above_top_breakpoint_expands(self):
        flow = _affine_flow(self.weights, self.breaks)
        level = _solve_one(self.breaks, 1e4, flow)
        assert level == pytest.approx(
            _affine_level(self.weights, self.breaks, 1e4), rel=1e-10)

    def test_zero_filled_demand_returns_smallest_breakpoint(self):
        flow = _affine_flow(self.weights, self.breaks)
        assert _solve_one(self.breaks, 0.0, flow) == \
            pytest.approx(float(self.breaks.min()))

    def test_cap_bounds_the_level(self):
        # Flow at the cap 2.0 is 1*2 + 0.5*1 + 2*1 = 4.5: below it the
        # level is the affine root, at or above it exactly the cap.
        flow = _affine_flow(self.weights, self.breaks)
        dflow = _affine_dflow(self.weights, self.breaks)
        for demand in (0.5, 4.0):
            assert _solve_one(self.breaks, demand, flow, _fused(flow, dflow),
                              cap=2.0) == pytest.approx(
                _affine_level(self.weights, self.breaks, demand), rel=1e-10)
        for demand in (4.5, 10.0):
            assert _solve_one(self.breaks, demand, flow, cap=2.0) == 2.0
        # A cap at or below every breakpoint leaves the links empty.
        assert _solve_one(self.breaks, 1.0, flow, cap=0.0) == 0.0

    def test_saturating_flow_raises(self):
        # Total filled flow caps at 1.0: demand 2.0 can never be bracketed.
        def flow(levels):
            levels = np.asarray(levels, dtype=float)
            return 1.0 - np.exp(-np.maximum(levels, 0.0))

        with pytest.raises(ConvergenceError):
            _solve_one(np.array([0.0]), 2.0, flow, max_expansions=40)

    def test_nan_flow_raises(self):
        # The active segment is [0, 2] but the flow turns NaN above 1.0, so
        # the Newton/bisection loop must trip the finiteness guard rather
        # than silently half-stepping on a poisoned bracket.
        def flow(levels):
            levels = np.asarray(levels, dtype=float)
            with np.errstate(invalid="ignore"):
                return np.where(levels > 1.0, np.nan, levels)

        with pytest.raises(ConvergenceError):
            _solve_one(np.array([0.0, 2.0]), 1.5, flow)

    def test_rejects_negative_demand_and_bad_grid(self):
        flow = _affine_flow(self.weights, self.breaks)
        with pytest.raises(ModelError):
            _solve_one(self.breaks, -1.0, flow)
        with pytest.raises(ModelError):
            _solve_one(np.array([0.0, np.inf]), 1.0, flow)
        with pytest.raises(ModelError):
            _solve_one(np.array([0.0, np.nan]), 1.0, flow)
        with pytest.raises(ModelError):
            _solve_one(np.array([]), 1.0, flow)


# --------------------------------------------------------------------------- #
# The same engine over many demands at once
# --------------------------------------------------------------------------- #
class TestSortedBreakpointLevels:
    weights = np.array([1.0, 0.5, 2.0, 0.25])
    breaks = np.array([0.0, 1.0, 1.0, 3.0])

    @pytest.mark.parametrize("rows", [1, SEARCH_ELEMENTS])
    def test_matches_one_demand_solves(self, rows):
        flow = _affine_flow(self.weights, self.breaks)
        fused = _fused(flow, _affine_dflow(self.weights, self.breaks))
        demands = np.array([0.0, 0.5, 1.0, 2.5, 7.0, 1e4])
        levels = sorted_breakpoint_levels(self.breaks, demands, flow, fused,
                                          rows=rows)
        for demand, level in zip(demands, levels):
            assert level == pytest.approx(
                _solve_one(self.breaks, float(demand), flow, fused,
                           rows=rows), rel=1e-12)
            assert level == pytest.approx(
                _affine_level(self.weights, self.breaks, float(demand)),
                rel=1e-10)

    def test_empty_batch(self):
        flow = _affine_flow(self.weights, self.breaks)
        out = sorted_breakpoint_levels(self.breaks, np.empty(0), flow,
                                       _fused(flow), rows=4)
        assert out.shape == (0,)

    def test_rejects_bad_demands(self):
        flow = _affine_flow(self.weights, self.breaks)
        with pytest.raises(ModelError):
            sorted_breakpoint_levels(self.breaks, np.array([-1.0]), flow,
                                     _fused(flow), rows=4)
        with pytest.raises(ModelError):
            sorted_breakpoint_levels(self.breaks, np.array([[1.0]]), flow,
                                     _fused(flow), rows=4)


# --------------------------------------------------------------------------- #
# Regression: NaN from func(mid) must raise, not collapse the bracket
# --------------------------------------------------------------------------- #
class TestVectorizedBisectNaNGuard:
    def test_nan_raises_convergence_error(self):
        # An M/M/1-style gap evaluated beyond its pole returns NaN.  Under
        # the old code ``NaN < 0`` is False, so ``hi := mid`` silently walked
        # the bracket onto the invalid region and "converged" to garbage.
        def gap(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(x >= 1.0, np.nan, 1.0 / (1.0 - x) - 10.0)

        with pytest.raises(ConvergenceError):
            vectorized_bisect(gap, np.array([0.0]), np.array([2.0]))

    def test_infinite_values_still_bisect(self):
        # +inf is a legitimate "above the root" signal and must keep working.
        def gap(x):
            with np.errstate(over="ignore"):
                return np.exp(x) - np.e

        root = vectorized_bisect(gap, np.array([0.0]), np.array([800.0]))
        assert root[0] == pytest.approx(1.0, abs=1e-9)

    def test_plain_roots_unaffected(self):
        roots = vectorized_bisect(lambda x: x - np.array([1.0, 2.0, 3.0]),
                                  np.zeros(3), np.full(3, 10.0))
        np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-9)


# --------------------------------------------------------------------------- #
# Regression: frozen rows must not be re-evaluated at their frozen hi
# --------------------------------------------------------------------------- #
class TestExpandUpperBracketsFrozenRows:
    def test_frozen_row_is_not_probed_again(self):
        # Row 0 brackets immediately at hi = capacity (an M/M/1 row frozen
        # exactly at its domain boundary); row 1 needs several doublings.
        # The old code kept evaluating func(hi) on row 0 every iteration —
        # wasted work and a spurious domain probe at the boundary.  The fix
        # probes frozen rows at their known-good ``lo`` instead.
        capacity = 1.0
        probes_at_boundary = []

        def gap(x):
            probes_at_boundary.append(float(x[0]))
            out = np.array(x - 40.0, dtype=float)
            if np.isclose(x[0], capacity):
                out[0] = 0.0  # row 0 brackets exactly at its boundary
            return out

        hi = expand_upper_brackets(gap, np.array([0.0, 0.0]), initial=capacity)
        assert hi[0] == pytest.approx(capacity)
        assert hi[1] >= 40.0
        # Row 0 was probed at its boundary exactly once (the freezing
        # evaluation); every later iteration probed it at lo = 0.
        assert probes_at_boundary.count(capacity) == 1
        assert all(p == 0.0 for p in probes_at_boundary[1:])

    def test_mm1_row_frozen_at_capacity_raises_nothing(self):
        # End-to-end shape of the bug: one row's upper bracket sits at an
        # M/M/1 capacity where the latency cannot be evaluated, the other
        # row still needs expansion.  Old code re-evaluated the frozen row
        # at its boundary and blew up with a domain error.
        capacity = 2.0

        def gap(x):
            out = np.empty_like(x)
            # Row 0: an M/M/1 latency gap, +inf (bracketed) at capacity,
            # invalid beyond it.
            if x[0] > capacity:
                raise FloatingPointError("M/M/1 probed beyond capacity")
            with np.errstate(divide="ignore"):
                out[0] = np.inf if x[0] == capacity \
                    else 1.0 / (capacity - x[0]) - 100.0
            out[1] = x[1] - 33.0
            return out

        hi = expand_upper_brackets(gap, np.zeros(2), initial=capacity)
        assert hi[0] == pytest.approx(capacity)
        assert hi[1] >= 33.0

    def test_all_rows_expand_normally(self):
        hi = expand_upper_brackets(lambda x: x - np.array([3.0, 17.0]),
                                   np.zeros(2))
        assert hi[0] >= 3.0 and hi[1] >= 17.0

    def test_unbracketable_rows_raise(self):
        with pytest.raises(ConvergenceError):
            expand_upper_brackets(lambda x: np.full_like(x, -1.0),
                                  np.zeros(2), max_expansions=8)
