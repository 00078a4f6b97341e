"""Tests of the UNCERTAINTY registry axis: builder hook, plan threading."""

import pytest

from repro.api import UNCERTAINTY, ExperimentPlan, PlanError, Simulation
from repro.experiments.runner import TrialSpec, run_trial
from repro.sim.faults import (ComposedUncertainty, MachineStallModel,
                              NetworkLatencyModel, NoUncertainty)


class TestRegistry:
    def test_models_registered(self):
        for name in ("none", "network_latency", "machine_stall", "composed"):
            assert name in UNCERTAINTY

    def test_create_with_params(self):
        model = UNCERTAINTY.create("network_latency", mean_latency=2.0)
        assert isinstance(model, NetworkLatencyModel)
        assert model.mean_latency == 2.0

    def test_create_none(self):
        assert isinstance(UNCERTAINTY.create("none"), NoUncertainty)

    def test_composed_factory_by_names(self):
        model = UNCERTAINTY.create("composed")
        assert isinstance(model, ComposedUncertainty)
        assert isinstance(model.models[0], NetworkLatencyModel)
        assert isinstance(model.models[1], MachineStallModel)

    def test_composed_factory_with_params(self):
        model = UNCERTAINTY.create(
            "composed", models=[("machine_stall",
                                 {"stall_probability": 0.5})])
        assert isinstance(model.models[0], MachineStallModel)
        assert model.models[0].stall_probability == 0.5

    def test_composed_bare_string_is_one_model(self):
        model = UNCERTAINTY.create("composed", models="network_latency")
        assert len(model.models) == 1
        assert isinstance(model.models[0], NetworkLatencyModel)

    def test_composed_rejects_self_nesting(self):
        with pytest.raises(ValueError):
            UNCERTAINTY.create("composed", models=["composed"])

    def test_typo_gets_suggestion(self):
        with pytest.raises(KeyError, match="network_latency"):
            UNCERTAINTY.get("network_latancy")


class TestBuilderHook:
    def test_uncertainty_threads_to_plan(self):
        sim = (Simulation().scenario("spec").scale(0.002).trials(1)
               .uncertainty("machine_stall", stall_probability=0.1))
        plan = sim.build_plan(name="u")
        assert plan.uncertainty == "machine_stall"
        assert plan.uncertainty_params == (("stall_probability", 0.1),)

    def test_describe_config_reports_uncertainty(self):
        sim = Simulation().scenario("spec").uncertainty("network_latency")
        assert sim.describe_config()["uncertainty"] == "network_latency"
        assert "uncertainty" not in Simulation().describe_config()

    def test_builder_validates_name_and_params(self):
        with pytest.raises(KeyError):
            Simulation().uncertainty("nope")
        with pytest.raises(Exception):
            Simulation().uncertainty("machine_stall", bogus=1)

    def test_builder_is_immutable(self):
        base = Simulation().scenario("spec")
        derived = base.uncertainty("network_latency")
        assert base.plan.uncertainty == "none"
        assert derived.plan.uncertainty == "network_latency"


class TestPlanThreading:
    def test_default_plan_omits_uncertainty_keys(self):
        # Plans written before the axis existed must keep their
        # fingerprints, so "none" never serialises.
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1)
        assert "uncertainty" not in plan.to_dict()["execution"]
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_round_trip_with_uncertainty(self, tmp_path):
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1,
                              uncertainty="network_latency",
                              uncertainty_params={"mean_latency": 2.0})
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.toml"
        plan.to_file(str(path))
        assert ExperimentPlan.from_file(str(path)) == plan

    def test_cells_carry_uncertainty(self):
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1,
                              uncertainty="machine_stall")
        cell = plan.cells()[0]
        assert cell.specs[0].uncertainty_name == "machine_stall"
        assert cell.config["uncertainty"] == "machine_stall"
        clean = ExperimentPlan(name="p", scales=[0.002], trials=1).cells()[0]
        assert "uncertainty" not in clean.config

    def test_plan_validates_uncertainty(self):
        with pytest.raises(PlanError):
            ExperimentPlan(name="p", scales=[0.002],
                           uncertainty="netwrk_latency")
        with pytest.raises(PlanError):
            ExperimentPlan(name="p", scales=[0.002],
                           uncertainty="machine_stall",
                           uncertainty_params={"bogus": 1})


class TestRunnerEffect:
    def _spec(self, **overrides):
        base = dict(scenario_name="spec", level="20k", scale=0.002,
                    gamma=1.0, queue_capacity=6, seed=3, mapper_name="PAM",
                    dropper_name="heuristic")
        base.update(overrides)
        return TrialSpec(**base)

    def test_uncertainty_perturbs_trial(self):
        clean = run_trial(self._spec())
        noisy = run_trial(self._spec(
            uncertainty_name="network_latency",
            uncertainty_params=(("mean_latency", 30.0),)))
        assert noisy.makespan != clean.makespan

    def test_none_is_the_default_identity(self):
        assert run_trial(self._spec()) == run_trial(
            self._spec(uncertainty_name="none"))
