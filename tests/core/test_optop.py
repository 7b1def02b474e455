"""Tests for algorithm OpTop (Corollary 2.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import optop
from repro.equilibrium import parallel_nash, parallel_optimum
from repro.instances import (
    figure_4_example,
    heavy_tail_capacity,
    mixed_family_soup,
    mm1_server_farm,
    near_degenerate_breakpoints,
    pigou,
    pigou_nonlinear,
    random_linear_parallel,
    random_mixed_parallel,
    random_mm1_parallel,
    random_polynomial_parallel,
)
from repro.latency import ConstantLatency, LinearLatency
from repro.network import ParallelLinkInstance


class TestPigou:
    def test_beta_is_one_half(self, pigou_instance):
        assert optop(pigou_instance).beta == pytest.approx(0.5, abs=1e-9)

    def test_strategy_matches_figure_2(self, pigou_instance):
        result = optop(pigou_instance)
        assert result.strategy.flows == pytest.approx([0.0, 0.5], abs=1e-9)

    def test_induced_equilibrium_matches_figure_3(self, pigou_instance):
        result = optop(pigou_instance)
        assert result.outcome.follower_flows == pytest.approx([0.5, 0.0], abs=1e-9)
        assert result.induced_cost == pytest.approx(result.optimum_cost, abs=1e-12)

    def test_costs_exposed(self, pigou_instance):
        result = optop(pigou_instance)
        assert result.nash_cost == pytest.approx(1.0)
        assert result.optimum_cost == pytest.approx(0.75)
        assert result.controlled_flow == pytest.approx(0.5)


class TestFigure4:
    def test_beta_matches_paper(self, figure4_instance):
        result = optop(figure4_instance)
        assert result.beta == pytest.approx(29.0 / 120.0, abs=1e-9)

    def test_first_round_freezes_m4_m5(self, figure4_instance):
        result = optop(figure4_instance)
        assert result.rounds[0].frozen_links == (3, 4)

    def test_terminates_in_two_rounds(self, figure4_instance):
        result = optop(figure4_instance)
        assert result.num_rounds == 2
        assert result.rounds[1].frozen_links == ()

    def test_strategy_loads_frozen_links_optimally(self, figure4_instance):
        result = optop(figure4_instance)
        optimum = parallel_optimum(figure4_instance)
        assert result.strategy.flows[3] == pytest.approx(optimum.flows[3], abs=1e-9)
        assert result.strategy.flows[4] == pytest.approx(optimum.flows[4], abs=1e-9)
        assert result.strategy.flows[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_induced_equilibrium_is_optimum(self, figure4_instance):
        result = optop(figure4_instance)
        optimum = parallel_optimum(figure4_instance)
        assert result.outcome.combined_flows == pytest.approx(optimum.flows, abs=1e-7)


class TestDegenerateCases:
    def test_identical_links_need_no_control(self):
        instance = ParallelLinkInstance([LinearLatency(1.0)] * 3, 1.5)
        result = optop(instance)
        assert result.beta == pytest.approx(0.0, abs=1e-9)
        assert result.num_rounds == 1

    def test_nash_equals_optimum_gives_zero_beta(self):
        # Single link: Nash trivially equals the optimum.
        instance = ParallelLinkInstance([LinearLatency(2.0, 0.3)], 1.0)
        result = optop(instance)
        assert result.beta == 0.0
        assert result.induced_cost == pytest.approx(result.optimum_cost)

    def test_nonlinear_pigou(self):
        instance = pigou_nonlinear(4.0)
        result = optop(instance)
        assert 0.0 < result.beta < 1.0
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-8)


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(6))
    def test_induces_optimum_on_linear_instances(self, seed):
        instance = random_linear_parallel(6, demand=2.0, seed=seed)
        result = optop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_induces_optimum_on_polynomial_instances(self, seed):
        instance = random_polynomial_parallel(5, demand=2.0, seed=seed)
        result = optop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_induces_optimum_on_mixed_instances(self, seed):
        instance = random_mixed_parallel(6, demand=2.0, seed=seed)
        result = optop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_beta_in_unit_interval(self, seed):
        instance = random_linear_parallel(5, demand=1.0, seed=seed)
        assert 0.0 <= optop(instance).beta <= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_frozen_links_were_under_loaded_in_their_round(self, seed):
        """OpTop only freezes links that are under-loaded in the current round."""
        instance = random_linear_parallel(6, demand=2.0, seed=seed)
        result = optop(instance)
        optimum = parallel_optimum(instance)
        for round_ in result.rounds:
            position = {orig: pos for pos, orig in enumerate(round_.active_links)}
            for frozen in round_.frozen_links:
                round_nash_flow = round_.nash_flows[position[frozen]]
                assert round_nash_flow < optimum.flows[frozen] + 1e-6

    def test_mm1_farm(self):
        instance = mm1_server_farm(2, 6, fast_capacity=8.0, slow_capacity=2.0)
        result = optop(instance)
        assert result.induced_cost == pytest.approx(result.optimum_cost, rel=1e-7)
        assert 0.0 <= result.beta < 1.0


class TestMinimality:
    """beta_M is the *minimum* control needed: less control cannot reach C(O)."""

    @pytest.mark.parametrize("seed", [11, 17])
    def test_grid_search_below_beta_fails_to_reach_optimum(self, seed):
        from repro.baselines import brute_force_strategy
        instance = random_linear_parallel(3, demand=1.5, seed=seed)
        result = optop(instance)
        if result.beta < 0.1:
            pytest.skip("beta too small for a meaningful sub-beta grid search")
        brute = brute_force_strategy(instance, result.beta * 0.7, resolution=14)
        assert brute.cost > result.optimum_cost * (1.0 + 1e-7)

    def test_pigou_just_below_half_cannot_reach_optimum(self, pigou_instance):
        from repro.equilibrium import induced_parallel_equilibrium
        # With only 0.45 the best the Leader can do is put it all on link 2.
        outcome = induced_parallel_equilibrium(pigou_instance, [0.0, 0.45])
        assert outcome.cost > parallel_optimum(pigou_instance).cost + 1e-4


# --------------------------------------------------------------------------- #
# The one-solve closed form and its round-loop oracle
# --------------------------------------------------------------------------- #
def _floor(result):
    """``min l(o)`` over the used links."""
    opt = result.optimum.flows
    return result.instance.latency_batch().values(opt)[opt > 0.0].min()


def _excess(result):
    """``l_i(o_i) - min l(o)`` per link."""
    opt = result.optimum.flows
    return result.instance.latency_batch().values(opt) - _floor(result)


def _oracle_frozen(result):
    return tuple(sorted(set().union(*(r.frozen_links for r in result.rounds))))


#: (family, draw(m, level, seed)) for the seven families of the cold-solve
#: benchmark stream; ``level`` 0 / 1 picks a light / heavy demand.
AGREEMENT_FAMILIES = {
    "random_linear_parallel":
        lambda m, k, s: random_linear_parallel(m, (0.01, 2.0)[k], seed=s),
    "random_mixed_parallel":
        lambda m, k, s: random_mixed_parallel(m, (0.1, 5.0)[k], seed=s),
    "random_polynomial_parallel":
        lambda m, k, s: random_polynomial_parallel(m, (0.01, 2.0)[k], seed=s),
    "random_mm1_parallel":
        lambda m, k, s: random_mm1_parallel(m, (0.05, 0.7)[k], seed=s),
    "heavy_tail_capacity":
        lambda m, k, s: heavy_tail_capacity(
            m, demand_fraction=(0.3, 0.9)[k], seed=s),
    "mixed_family_soup":
        lambda m, k, s: mixed_family_soup(max(m, 5), (0.3, 5.0)[k], seed=s),
    "near_degenerate_breakpoints":
        lambda m, k, s: near_degenerate_breakpoints(m, (1e-3, 10.0)[k],
                                                    seed=s),
}


class TestClosedFormAgainstOracle:
    """The closed form against the round loop under the same ``delta``."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("m", [2, 5, 20, 100])
    @pytest.mark.parametrize("family", sorted(AGREEMENT_FAMILIES))
    def test_agreement(self, family, m, level, seed):
        instance = AGREEMENT_FAMILIES[family](m, level, seed)
        result = optop(instance)
        oracle = _oracle_frozen(result)
        if family != "near_degenerate_breakpoints":
            assert oracle == result.frozen_links
            return
        # Near ties: no per-round rule can see ``min l(o)``, so the loop may
        # stop while links within ``delta`` of its last Nash level remain.
        # It never freezes a link the closed form keeps, and every link it
        # leaves that the closed form freezes lies in that band.
        assert set(oracle) <= set(result.frozen_links)
        last = result.rounds[-1]
        level_n = parallel_nash(
            instance.sub_instance(list(last.active_links),
                                  last.remaining_flow)).common_value
        for link in set(result.frozen_links) - set(oracle):
            assert _excess(result)[link] <= (level_n - _floor(result)) \
                + result.tie_tol * (1.0 + 1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_links_agree(self, seed):
        rng = np.random.default_rng(seed)
        lats = [LinearLatency(*rng.uniform(0.1, 2.0, 2)) for _ in range(3)]
        lats += [ConstantLatency(c) for c in rng.uniform(0.5, 2.5, 2)]
        instance = ParallelLinkInstance(lats, float(rng.uniform(0.5, 4.0)))
        result = optop(instance)
        assert _oracle_frozen(result) == result.frozen_links

    @pytest.mark.parametrize("family", sorted(AGREEMENT_FAMILIES))
    def test_cost_guarantee(self, family):
        """The followers' level on ``U`` is within ``delta`` of ``min l(o)``,
        so ``C(S+T) <= C(O) + delta * r``."""
        instance = AGREEMENT_FAMILIES[family](20, 1, 3)
        result = optop(instance)
        delta = result.tie_tol
        floor = _floor(result)
        level = result.outcome.follower_common_latency
        slack = 1e-12 * max(1.0, abs(floor))
        assert floor - slack <= level <= floor + delta + slack
        assert result.induced_cost <= result.optimum_cost \
            + delta * instance.demand + slack
        assert delta == pytest.approx(
            1e-8 * result.optimum_cost / instance.demand)


class TestTies:
    def test_last_bit_ties_do_not_freeze(self):
        # The E15 row-7 cell: x, 1.5x and 2x tie at the optimum, but their
        # computed latencies differ in the last bit.  An exact-equality
        # rule freezes two of them and reports beta 0.3878.
        instance = figure_4_example().with_demand(0.7009345791302621)
        result = optop(instance)
        assert result.frozen_links == (3,)
        assert result.beta == pytest.approx(0.11569985568215897, abs=1e-9)
        assert result.tie_margin > 1e3 * result.tie_tol

    def test_genuine_gap_above_delta_freezes(self):
        # Two links whose optimum latencies differ by 1e-6 of the mean:
        # well above delta, so the slower one is frozen.
        instance = ParallelLinkInstance(
            [LinearLatency(1.0, 1.0), LinearLatency(1.0, 1.0 + 2e-6)], 2.0)
        result = optop(instance)
        assert result.frozen_links == (1,)
        assert result.tie_margin == pytest.approx(1e-6, rel=1e-3)

    def test_gap_below_delta_is_a_tie(self):
        instance = ParallelLinkInstance(
            [LinearLatency(1.0, 1.0), LinearLatency(1.0, 1.0 + 1e-9)], 2.0)
        result = optop(instance)
        assert result.beta == 0.0
        assert result.frozen_links == ()
        assert result.tie_margin is None

    def test_all_constant_ties_need_no_control(self):
        instance = ParallelLinkInstance([ConstantLatency(1.0)] * 3, 2.0)
        result = optop(instance)
        assert result.beta == 0.0
        assert result.num_rounds == 1
        assert result.induced_cost == pytest.approx(result.optimum_cost)

    def test_constant_link_tied_with_increasing_links(self):
        # l(0) of both affine links equals the constant: the optimum keeps
        # everything on the constant link and nothing needs freezing.
        instance = ParallelLinkInstance(
            [ConstantLatency(1.0), LinearLatency(1.0, 1.0),
             LinearLatency(2.0, 1.0)], 1.0)
        result = optop(instance)
        assert result.beta == 0.0
        assert _oracle_frozen(result) == ()

    def test_used_constants_sit_at_the_level(self):
        # Two constants at the level 1 and one affine link: the constants
        # carry 0.75 each at the optimum, above l(o) = 0.5 of the affine
        # link, so both are frozen; the oracle needs the constant rule to
        # see it, since the Nash level equals the constants' latency.
        instance = ParallelLinkInstance(
            [ConstantLatency(1.0), ConstantLatency(1.0), LinearLatency(1.0)],
            2.0)
        result = optop(instance)
        assert result.frozen_links == (0, 1)
        assert result.beta == pytest.approx(0.75)
        assert result.rounds[0].frozen_links == (0, 1)
        assert result.num_rounds == 2


class TestOneSolve:
    def test_three_water_fills_and_no_sub_instance(self, monkeypatch):
        from repro.api import SolveConfig, solve
        calls = []
        original = ParallelLinkInstance.sub_instance
        monkeypatch.setattr(
            ParallelLinkInstance, "sub_instance",
            lambda self, *a, **k: calls.append(a) or original(self, *a, **k))
        instance = random_mixed_parallel(40, 5.0, seed=3)
        report = solve(instance, "optop",
                       config=SolveConfig(profile=True, cache=False))
        phases = report.profile["phases"]
        assert {name: p["calls"] for name, p in phases.items()} == {
            "water_fill[optimum]": 1, "water_fill[nash]": 2}
        assert calls == []
        # The round trace is the only caller, and only on first access.
        result = optop(instance)
        assert calls == []
        assert result.num_rounds > 1
        assert len(calls) == result.num_rounds - 1
        result.rounds
        assert len(calls) == result.num_rounds - 1

    def test_report_metadata_says_why_this_beta(self, figure4_instance):
        from repro.api import solve
        metadata = solve(figure4_instance, "optop").metadata
        assert metadata["frozen_links"] == [3, 4]
        result = optop(figure4_instance)
        assert metadata["tie_tol"] == result.tie_tol
        assert metadata["tie_margin"] == pytest.approx(1.0 / 12.0)
        assert "num_rounds" not in metadata
