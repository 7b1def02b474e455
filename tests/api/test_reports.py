"""Satellite: every strategy returns a losslessly JSON-round-tripping report."""

from __future__ import annotations

import json

import pytest

from repro.api import SolveConfig, SolveReport, available_strategies, solve
from repro.instances import braess_paradox, figure_4_example, pigou
from repro.serialization import instance_from_dict

INSTANCES = {
    "pigou": pigou,
    "braess_paradox": braess_paradox,
    "figure_4_example": figure_4_example,
}

#: Small brute-force grid keeps the 5-link figure-4 case fast.
CONFIG = SolveConfig(brute_force_resolution=5)


@pytest.mark.parametrize("strategy", sorted(available_strategies()))
@pytest.mark.parametrize("instance_name", sorted(INSTANCES))
class TestRoundTrip:
    def test_returns_solve_report(self, strategy, instance_name):
        report = solve(INSTANCES[instance_name](), strategy, config=CONFIG)
        assert isinstance(report, SolveReport)
        assert report.strategy == strategy
        assert report.induced_cost >= report.optimum_cost - 1e-9

    def test_json_round_trip_is_lossless(self, strategy, instance_name):
        report = solve(INSTANCES[instance_name](), strategy, config=CONFIG)
        text = report.to_json()
        restored = SolveReport.from_json(text)
        assert restored == report
        # A second round trip is byte-identical (canonical rendering).
        assert restored.to_json() == text

    def test_embedded_instance_reloads(self, strategy, instance_name):
        report = solve(INSTANCES[instance_name](), strategy, config=CONFIG)
        reloaded = instance_from_dict(report.instance)
        fresh = solve(reloaded, strategy, config=CONFIG)
        assert fresh.instance == report.instance
        assert fresh.induced_cost == pytest.approx(report.induced_cost, rel=1e-9)


class TestReportShape:
    def test_dict_is_json_compatible(self, pigou_instance):
        report = solve(pigou_instance, "optop")
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_nash_fields_absent_when_disabled(self, pigou_instance):
        report = solve(pigou_instance, "llf",
                       config=SolveConfig(compute_nash=False))
        assert report.nash_flows is None
        assert report.nash_cost is None
        assert report.price_of_anarchy is None

    def test_beta_only_for_price_of_optimum_strategies(self, pigou_instance):
        cfg = SolveConfig(brute_force_resolution=4)
        for name in ("optop", "mop"):
            assert solve(pigou_instance, name, config=cfg).beta is not None
        for name in ("llf", "scale", "aloof", "brute_force"):
            assert solve(pigou_instance, name, config=cfg).beta is None

    def test_cost_ratio_and_attainment(self, pigou_instance):
        report = solve(pigou_instance, "optop")
        assert report.cost_ratio == pytest.approx(1.0, abs=1e-9)
        assert report.attains_optimum
        aloof = solve(pigou_instance, "aloof")
        assert aloof.cost_ratio == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert not aloof.attains_optimum

    def test_optop_and_mop_agree_across_models(self, figure4_instance):
        """The embedded-graph MOP path reproduces OpTop's beta (Cor. 2.2/2.3)."""
        beta_links = solve(figure4_instance, "optop").beta
        beta_graph = solve(figure4_instance, "mop").beta
        assert beta_graph == pytest.approx(beta_links, abs=1e-5)

    def test_unknown_field_rejected(self, pigou_instance):
        from repro.exceptions import ModelError

        data = solve(pigou_instance, "optop").to_dict()
        data["surprise"] = 1
        with pytest.raises(ModelError):
            SolveReport.from_dict(data)


class TestRestamped:
    def test_replaces_only_the_stamped_fields(self, pigou_instance):
        import numpy as np

        report = solve(pigou_instance, "optop", config=SolveConfig(cache=False))
        stamped = report.restamped(wall_time=np.float64(2.5),
                                   metadata={"n": np.int64(3), "t": (1, 2)})
        assert stamped.wall_time == 2.5 and type(stamped.wall_time) is float
        assert stamped.metadata == {"n": 3, "t": [1, 2]}
        # The canonical fields are shared, not re-canonicalised.
        assert stamped.instance is report.instance
        assert report.wall_time != 2.5 and "n" not in report.metadata
        assert SolveReport.from_json(stamped.to_json()) == stamped

    def test_rejects_non_json_metadata(self, pigou_instance):
        from repro.exceptions import ModelError

        report = solve(pigou_instance, "optop")
        with pytest.raises(ModelError):
            report.restamped(metadata={"bad": object()})
