"""Vectorized/reference water-filling equivalence (the kernel contract).

Parametrized over random mixed instances (linear, M/M/1, polynomial, power,
generic and constant families), both solve kinds, one and many demands,
link counts on both sides of the level engine's one-pass search budget,
zero-demand and constant-floor edge cases: the vectorized backend must match
the scalar reference to 1e-9.  Kernel failures inside the level solve must
surface as themselves, never as "demand cannot be routed".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SolveConfig
from repro.core.optop import optop
from repro.equilibrium.parallel import (
    parallel_nash,
    parallel_optimum,
    water_fill,
    water_fill_many,
)
from repro.exceptions import ConvergenceError, ModelError
from repro.latency import (
    BPRLatency,
    ConstantLatency,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PolynomialLatency,
)
from repro.instances import random_linear_parallel, random_mixed_parallel
from repro.latency.base import LatencyFunction
from repro.latency.batch import LatencyBatch
from repro.network.parallel import ParallelLinkInstance
from repro.utils.vectorized import SEARCH_ELEMENTS

EQ_TOL = 1e-9


def random_family_links(seed: int, m: int = 12):
    """A heterogeneous link set drawing from every analytic family."""
    rng = np.random.default_rng(seed)
    links = []
    for i in range(m):
        kind = rng.integers(0, 5)
        if kind == 0:
            links.append(LinearLatency(float(rng.uniform(0.2, 3.0)),
                                       float(rng.uniform(0.0, 1.0))))
        elif kind == 1:
            links.append(MM1Latency(float(rng.uniform(2.0, 6.0))))
        elif kind == 2:
            links.append(MonomialLatency(float(rng.uniform(0.3, 2.0)),
                                         float(rng.integers(2, 5)),
                                         float(rng.uniform(0.0, 0.5))))
        elif kind == 3:
            coeffs = rng.uniform(0.1, 1.0, size=int(rng.integers(2, 5)))
            links.append(PolynomialLatency([float(c) for c in coeffs]))
        else:
            links.append(ConstantLatency(float(rng.uniform(0.8, 2.0))))
    if all(lat.is_constant for lat in links):
        links[0] = LinearLatency(1.0, 0.0)
    return links


class _WeirdLatency(LatencyFunction):
    """A strictly increasing latency with no family: the generic bucket."""

    def value(self, x):
        return 1.0 + x + 0.1 * np.sinh(x)

    def derivative(self, x):
        return 1.0 + 0.1 * np.cosh(x)

    def integral(self, x):
        return x + 0.5 * x * x + 0.1 * (np.cosh(x) - 1.0)


def analytic_links(seed: int, m: int):
    """``m`` increasing links with closed-form inverses for both kinds."""
    rng = np.random.default_rng(seed)
    links = []
    for i in range(m):
        if i % 3 == 0:
            links.append(LinearLatency(float(rng.uniform(0.2, 3.0)),
                                       float(rng.uniform(0.0, 1.0))))
        elif i % 3 == 1:
            links.append(MM1Latency(float(rng.uniform(2.0, 6.0))))
        else:
            links.append(MonomialLatency(float(rng.uniform(0.3, 2.0)),
                                         float(rng.integers(2, 5)),
                                         float(rng.uniform(0.0, 0.5))))
    return links


def one_pass_limit() -> int:
    """Largest all-analytic link count whose segment search is one broadcast.

    One pass needs ``SEARCH_ELEMENTS // rows`` probes to cover the ``m - 1``
    breakpoints above the smallest, with ``rows = m``.
    """
    m = 1
    while SEARCH_ELEMENTS // (m + 1) >= m:
        m += 1
    return m


def assert_many_agree(latencies, demands, kind, *, batch=None):
    """water_fill_many (and water_fill per demand) against the reference."""
    flows, levels = water_fill_many(latencies, demands, kind, batch=batch)
    for j, demand in enumerate(demands):
        ref_flows, ref_level = water_fill(latencies, float(demand), kind,
                                          backend="reference")
        np.testing.assert_allclose(flows[j], ref_flows, atol=EQ_TOL, rtol=0.0)
        assert levels[j] == pytest.approx(ref_level, abs=EQ_TOL)
        one_flows, one_level = water_fill(latencies, float(demand), kind,
                                          batch=batch)
        np.testing.assert_allclose(one_flows, flows[j], atol=1e-12, rtol=0.0)
        assert one_level == pytest.approx(levels[j], abs=1e-12, rel=1e-12)


def assert_backends_agree(latencies, demand, kind, *, tol=1e-12):
    vec_flows, vec_level = water_fill(latencies, demand, kind, tol=tol)
    ref_flows, ref_level = water_fill(latencies, demand, kind, tol=tol,
                                      backend="reference")
    np.testing.assert_allclose(vec_flows, ref_flows, atol=EQ_TOL, rtol=0.0)
    assert vec_level == pytest.approx(ref_level, abs=EQ_TOL)
    if demand > 0.0:
        assert vec_flows.sum() == pytest.approx(demand, rel=1e-9)


class TestRandomMixedEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_mixed_families(self, seed, kind):
        links = random_family_links(seed)
        demand = float(np.random.default_rng(1000 + seed).uniform(0.1, 4.0))
        assert_backends_agree(links, demand, kind)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_all_linear_uses_exact_closed_form(self, seed, kind):
        instance = random_linear_parallel(40, demand=7.5, seed=seed)
        assert_backends_agree(instance.latencies, instance.demand, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_generator_mixed_instances(self, kind):
        instance = random_mixed_parallel(30, demand=4.0, seed=5)
        assert_backends_agree(instance.latencies, instance.demand, kind)


class TestEdgeCases:
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_zero_demand(self, kind):
        links = random_family_links(3)
        assert_backends_agree(links, 0.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_constant_floor_absorbs_excess(self, kind):
        # A cheap constant link caps the level: the constants must soak up
        # the flow the increasing links cannot take below the floor.
        links = [LinearLatency(1.0, 0.0), ConstantLatency(0.5),
                 ConstantLatency(0.5), LinearLatency(2.0, 0.1)]
        assert_backends_agree(links, 10.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_all_constant_links(self, kind):
        links = [ConstantLatency(1.0), ConstantLatency(1.0)]
        assert_backends_agree(links, 2.0, kind)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_bpr_and_constant_mixture(self, kind):
        links = [BPRLatency(1.0, 2.0), BPRLatency(0.5, 1.0, alpha=0.3),
                 ConstantLatency(1.8), LinearLatency(0.7, 0.2)]
        assert_backends_agree(links, 3.0, kind)

    def test_unknown_kind_raises_on_both_backends(self):
        links = [LinearLatency(1.0)]
        with pytest.raises(ModelError):
            water_fill(links, 1.0, "nope")
        with pytest.raises(ModelError):
            water_fill(links, 1.0, "nope", backend="reference")

    def test_unknown_backend_raises(self):
        with pytest.raises(ModelError):
            water_fill([LinearLatency(1.0)], 1.0, "nash", backend="turbo")


class TestConfigSelection:
    def test_reference_backend_selectable_via_config(self):
        instance = random_mixed_parallel(10, demand=2.0, seed=9)
        config = SolveConfig(kernel_backend="reference")
        ref = parallel_nash(instance, config=config)
        vec = parallel_nash(instance)
        np.testing.assert_allclose(ref.flows, vec.flows, atol=EQ_TOL)
        assert ref.common_value == pytest.approx(vec.common_value, abs=EQ_TOL)

    def test_invalid_kernel_backend_rejected(self):
        with pytest.raises(ModelError):
            SolveConfig(kernel_backend="turbo")

    @pytest.mark.parametrize("seed", [0, 4])
    def test_optop_identical_across_backends(self, seed):
        instance = random_mixed_parallel(14, demand=3.0, seed=seed)
        vec = optop(instance)
        ref = optop(instance, config=SolveConfig(kernel_backend="reference"))
        assert vec.beta == pytest.approx(ref.beta, abs=1e-8)
        np.testing.assert_allclose(vec.strategy.flows, ref.strategy.flows,
                                   atol=1e-8)

    def test_optimum_matches_reference_through_config(self):
        instance = random_linear_parallel(25, demand=6.0, seed=2)
        vec = parallel_optimum(instance)
        ref = parallel_optimum(instance,
                               config=SolveConfig(kernel_backend="reference"))
        np.testing.assert_allclose(vec.flows, ref.flows, atol=EQ_TOL)


class TestMM1NearCapacity:
    """Regression: M/M/1 inverses probed exactly at capacity.

    With demand a hair under the joint capacity the common level is huge and
    the closed-form inverse ``c - f/L`` rounds to ``c`` exactly; evaluating
    the latency there divides by zero.  The inverses now clamp strictly
    inside the domain (``nextafter(c, 0)``), so the solve converges and the
    resulting flows remain evaluatable.
    """

    LINKS = [MM1Latency(1.0), MM1Latency(1000.0)]
    DEMAND = 1001.0 - 1e-9

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_near_capacity_demand_solves(self, kind, backend):
        flows, level = water_fill(self.LINKS, self.DEMAND, kind,
                                  backend=backend)
        assert np.all(np.isfinite(flows))
        assert flows.sum() == pytest.approx(self.DEMAND, rel=1e-9)
        assert level > 1e6  # the level blows up near capacity
        # Every flow stays strictly inside its link's domain: the latency
        # (and its derivative) must evaluate to a finite number.
        for lat, x in zip(self.LINKS, flows):
            assert x < lat.capacity
            assert np.isfinite(lat.value(float(x)))
            assert np.isfinite(lat.derivative(float(x)))

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_batch_values_evaluatable_at_solution(self, kind):
        from repro.latency.batch import LatencyBatch

        flows, _ = water_fill(self.LINKS, self.DEMAND, kind)
        values = LatencyBatch(self.LINKS).values(flows)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_backends_agree_near_capacity(self, kind):
        vec_flows, _ = water_fill(self.LINKS, self.DEMAND, kind)
        ref_flows, _ = water_fill(self.LINKS, self.DEMAND, kind,
                                  backend="reference")
        np.testing.assert_allclose(vec_flows, ref_flows, atol=1e-6)


class TestWaterFillMany:
    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_instance_loop(self, kind, seed):
        links = random_family_links(seed)
        rng = np.random.default_rng(1000 + seed)
        demands = np.concatenate([[0.0], rng.uniform(0.1, 8.0, size=7)])
        flows, levels = water_fill_many(links, demands, kind)
        assert flows.shape == (demands.size, len(links))
        for j, demand in enumerate(demands):
            f, level = water_fill(links, float(demand), kind)
            np.testing.assert_allclose(flows[j], f, atol=EQ_TOL)
            if np.isfinite(level):
                assert levels[j] == pytest.approx(level, abs=EQ_TOL,
                                                  rel=EQ_TOL)
            else:
                assert levels[j] == level

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_reference_backend_agrees(self, kind):
        links = random_family_links(3)
        demands = np.array([0.5, 2.0, 5.0])
        vec_flows, vec_levels = water_fill_many(links, demands, kind)
        ref_flows, ref_levels = water_fill_many(links, demands, kind,
                                                backend="reference")
        np.testing.assert_allclose(vec_flows, ref_flows, atol=EQ_TOL)
        np.testing.assert_allclose(vec_levels, ref_levels, atol=EQ_TOL)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_all_linear_closed_form(self, kind):
        links = [LinearLatency(1.0, 0.0), LinearLatency(0.5, 1.0),
                 LinearLatency(2.0, 0.3)]
        demands = np.array([0.0, 1.0, 4.0, 9.5])
        flows, levels = water_fill_many(links, demands, kind)
        for j, demand in enumerate(demands):
            f, level = water_fill(links, float(demand), kind)
            np.testing.assert_allclose(flows[j], f, atol=EQ_TOL)
            assert levels[j] == pytest.approx(level, abs=EQ_TOL)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_generic_fallback_rows(self, kind):
        # A generic (no closed-form inverse) link is inverted level by
        # level inside the batched engine; results must still match the
        # one-demand solver.
        links = [_WeirdLatency(), LinearLatency(1.0, 0.5), MM1Latency(4.0)]
        demands = np.array([0.3, 1.5, 3.0])
        flows, levels = water_fill_many(links, demands, kind)
        for j, demand in enumerate(demands):
            f, level = water_fill(links, float(demand), kind)
            np.testing.assert_allclose(flows[j], f, atol=EQ_TOL)
            assert levels[j] == pytest.approx(level, abs=EQ_TOL)

    def test_single_link(self):
        flows, levels = water_fill_many([MM1Latency(3.0)],
                                        np.array([0.0, 1.0, 2.5]), "nash")
        np.testing.assert_allclose(flows[:, 0], [0.0, 1.0, 2.5], atol=EQ_TOL)

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_duplicate_breakpoints(self, kind):
        # Identical links share one activation breakpoint; the engine must
        # deduplicate the grid without losing a segment.
        links = [LinearLatency(1.0, 1.0), LinearLatency(1.0, 1.0),
                 MonomialLatency(0.5, 3, 1.0), ConstantLatency(1.0)]
        demands = np.array([0.0, 0.5, 2.0, 6.0])
        flows, _ = water_fill_many(links, demands, kind)
        for j, demand in enumerate(demands):
            f, _ = water_fill(links, float(demand), kind)
            np.testing.assert_allclose(flows[j], f, atol=EQ_TOL)

    def test_empty_demands(self):
        flows, levels = water_fill_many([LinearLatency(1.0)], np.empty(0),
                                        "nash")
        assert flows.shape == (0, 1)
        assert levels.shape == (0,)

    def test_rejects_bad_input(self):
        with pytest.raises(ModelError):
            water_fill_many([LinearLatency(1.0)], np.array([-1.0]), "nash")
        with pytest.raises(ModelError):
            water_fill_many([LinearLatency(1.0)], np.array([[1.0]]), "nash")
        with pytest.raises(ModelError):
            water_fill_many([LinearLatency(1.0)], np.array([1.0]), "nope")
        with pytest.raises(ModelError):
            water_fill_many([LinearLatency(1.0)], np.array([1.0]), "nash",
                            backend="turbo")

    def test_prebuilt_batch_reused(self):
        from repro.latency.batch import LatencyBatch

        links = random_family_links(7)
        batch = LatencyBatch(links)
        demands = np.array([1.0, 3.0])
        flows_a, _ = water_fill_many(links, demands, "nash", batch=batch)
        flows_b, _ = water_fill_many(links, demands, "nash")
        np.testing.assert_allclose(flows_a, flows_b, atol=EQ_TOL)


class TestEngineAgreement:
    """The one level engine against the reference, around its size rule."""

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("count", [1, 6])
    def test_around_one_pass_budget(self, kind, offset, count):
        m = one_pass_limit() + offset
        links = analytic_links(m, m)
        demands = np.linspace(0.05, 0.5, count) * m if count > 1 \
            else np.array([0.3 * m])
        assert_many_agree(links, demands, kind)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_search_rule_follows_the_budget(self, offset, monkeypatch):
        # At the limit the first search evaluation covers every breakpoint
        # above the smallest; one link more and it no longer fits.
        m = one_pass_limit() + offset
        links = analytic_links(m, m)
        batch = LatencyBatch(links)
        profile = batch.level_profile("nash")
        sizes = []
        original = profile.flow
        monkeypatch.setattr(profile, "flow",
                            lambda levels: sizes.append(len(levels))
                            or original(levels))
        water_fill(links, 0.3 * m, "nash", batch=batch)
        assert profile.rows == m and profile.grid().size == m
        if offset == 0:
            assert sizes[0] == m - 1
        else:
            assert sizes[0] == SEARCH_ELEMENTS // m < m - 1

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_numeric_and_generic_rows(self, kind, count, seed):
        # Multi-term polynomials (numeric for both kinds), shifted powers
        # (numeric for the optimum) and a generic link, with constants.
        links = random_family_links(seed) + [
            _WeirdLatency(), MonomialLatency(0.8, 3.0, 0.2).shifted(0.4)]
        demands = np.linspace(0.5, 6.0, count)
        profile = LatencyBatch(links).level_profile(kind)
        assert profile.has_numeric
        assert_many_agree(links, demands, kind)


class TestKernelFailuresPropagate:
    """A kernel failure inside the level solve is not "cannot be routed"."""

    class _FlakyInverse(LatencyFunction):
        """``x + 0.1`` whose inverse fails for levels in (1, 2)."""

        def value(self, x):
            return x + 0.1

        def derivative(self, x):
            return 1.0 + 0.0 * x

        def integral(self, x):
            return 0.5 * x * x + 0.1 * x

        def inverse_value(self, y):
            if 1.0 < y < 2.0:
                raise ConvergenceError("inverse failed mid-search")
            return super().inverse_value(y)

    @pytest.mark.parametrize("sink", [False, True])
    def test_inverse_failure_propagates(self, sink):
        # The Nash level of demand 3 is 1.55, inside the failing range; a
        # constant at 2.5 must not turn the failure into a sink solution.
        links = [self._FlakyInverse(), LinearLatency(1.0, 0.0)]
        if sink:
            links.append(ConstantLatency(2.5))
        with pytest.raises(ConvergenceError):
            water_fill(links, 3.0, "nash")
        with pytest.raises(ConvergenceError):
            water_fill_many(links, [0.5, 3.0], "nash")

    @pytest.mark.parametrize("kind", ["nash", "optimum"])
    def test_mm1_saturates_into_constant_sink(self, kind):
        links = [MM1Latency(1.0), ConstantLatency(5.0)]
        flows, level = water_fill(links, 3.0, kind)
        assert level == 5.0
        assert flows[1] > 2.0 and flows.sum() == pytest.approx(3.0)
        assert_backends_agree(links, 3.0, kind)

    @pytest.mark.parametrize("demand", [3.0, 4.0])
    def test_unroutable_demand_is_a_model_error(self, demand):
        # No constants and the M/M/1 capacities sum to 3: saturated.
        with pytest.raises(ModelError, match="cannot be routed"):
            water_fill([MM1Latency(1.0), MM1Latency(2.0)], demand, "nash")
