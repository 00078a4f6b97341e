"""End-to-end integration tests reproducing the paper's qualitative claims.

These tests run small but non-trivial simulations (hundreds of tasks) and
assert the *shape* of the paper's results rather than absolute numbers:

* proactive dropping improves robustness over reactive-only dropping in an
  oversubscribed system;
* robustness decreases as oversubscription grows;
* with proactive dropping, the share of reactive drops collapses (§V-F);
* the quickstart entry point works for every scenario preset.
"""

import pytest

from repro import quick_run
from repro.experiments.config import ExperimentConfig

CONFIG = ExperimentConfig(scale=0.008, trials=2, base_seed=7)


def robustness(scenario, level, mapper, dropper, params=None, config=CONFIG):
    result = config.plan(
        scenarios=[scenario], levels=[level], mappers=[mapper],
        droppers=[{"name": dropper, "params": params or {}}]).execute().runs[0]
    return result.aggregate.robustness_pct.mean, result


class TestPaperShapeClaims:
    def test_proactive_dropping_improves_heterogeneous_robustness(self):
        with_drop, _ = robustness("spec", "30k", "PAM", "heuristic",
                                  {"beta": 1.0, "eta": 2})
        without, _ = robustness("spec", "30k", "PAM", "react")
        assert with_drop > without

    def test_proactive_dropping_improves_homogeneous_robustness(self):
        with_drop, _ = robustness("homogeneous", "30k", "SJF", "heuristic",
                                  {"beta": 1.0, "eta": 2})
        without, _ = robustness("homogeneous", "30k", "SJF", "react")
        assert with_drop > without

    def test_robustness_declines_with_oversubscription(self):
        low, _ = robustness("spec", "20k", "PAM", "heuristic", {"beta": 1.0, "eta": 2})
        high, _ = robustness("spec", "40k", "PAM", "heuristic", {"beta": 1.0, "eta": 2})
        assert low > high

    def test_reactive_share_collapses_with_proactive_dropping(self):
        _, with_drop = robustness("spec", "30k", "PAM", "heuristic",
                                  {"beta": 1.0, "eta": 2})
        share = with_drop.aggregate.reactive_share.mean
        assert share < 0.5  # paper reports ~7%; assert the qualitative collapse

    def test_mapping_heuristics_converge_under_dropping(self):
        """Fig. 7a: with dropping, MSD / MM / PAM end up close together."""
        values = {}
        for mapper in ("MSD", "MM", "PAM"):
            values[mapper], _ = robustness("spec", "30k", mapper, "heuristic",
                                           {"beta": 1.0, "eta": 2})
        spread = max(values.values()) - min(values.values())
        assert spread < 25.0

    def test_dropping_policies_all_functional_on_fig8_setup(self):
        for dropper, params in (("optimal", {}), ("heuristic", {"beta": 1.0, "eta": 2}),
                                ("threshold-adaptive", {})):
            value, _ = robustness("spec", "20k", "PAM", dropper, params,
                                  config=CONFIG.with_overrides(scale=0.004, trials=1))
            assert 0.0 <= value <= 100.0


class TestQuickRun:
    @pytest.mark.parametrize("scenario", ["spec", "homogeneous", "transcoding"])
    def test_quick_run_all_scenarios(self, scenario):
        metrics = quick_run(level="20k", mapper="MM", dropper="heuristic",
                            scale=0.002, seed=0, scenario=scenario)
        assert 0.0 <= metrics.robustness_pct <= 100.0
        assert metrics.cost is not None

    def test_quick_run_default_arguments(self):
        metrics = quick_run(scale=0.002)
        assert metrics.robustness.total_tasks >= 10
