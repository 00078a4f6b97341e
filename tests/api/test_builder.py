"""Tests for the fluent Simulation builder, results and sweep determinism."""

import dataclasses
import json

import pytest

from repro import quick_run
from repro.api import (MAPPERS, ExperimentPlan, RunResult, Simulation,
                       SweepResult)
from repro.api.results import METRICS
from repro.experiments.runner import TrialSpec
from repro.mapping import PAM
from repro.metrics.collector import TrialMetrics
from repro.workload.scenario import build_scenario

TINY = 0.002  # fraction of the paper's task counts; keeps tests fast


def tiny_sim() -> Simulation:
    return (Simulation.scenario("spec", level="20k", scale=TINY)
            .mapper("PAM").dropper("heuristic", beta=1.0)
            .trials(1, base_seed=3))


class TestBuilderConstruction:
    def test_fluent_methods_are_immutable(self):
        base = Simulation.scenario("spec")
        derived = base.mapper("MM").dropper("react").trials(5, base_seed=9)
        assert base.plan.mappers[0].name == "PAM"
        assert base.plan.trials == 1
        assert derived.plan.mappers[0].name == "MM"
        assert derived.plan.trials == 5
        assert derived.plan.base_seed == 9

    def test_builder_is_one_plan(self):
        assert [f.name for f in dataclasses.fields(Simulation)] == ["plan"]
        sim = Simulation.scenario("spec", level="20k").trials(2, base_seed=4)
        assert sim.build_plan() == sim.plan
        assert ExperimentPlan.from_dict(sim.plan.to_dict()) == sim.plan
        with pytest.raises(ValueError, match="one-cell plan, got 2 cells"):
            Simulation(ExperimentPlan(levels=["20k", "30k"]))

    def test_scenario_kwargs_split(self):
        sim = Simulation.scenario("homogeneous", level="20k", scale=0.01,
                                  num_machines=4)
        assert sim.plan.scenarios[0].name == "homogeneous"
        assert sim.plan.levels == ("20k",)
        assert dict(sim.plan.scenarios[0].params) == {"num_machines": 4}

    def test_scenario_seed_kwarg_becomes_base_seed(self):
        """seed= must map to the builder's seed knob, not scenario_params
        (where it would collide with run_trial's explicit seed argument)."""
        sim = Simulation.scenario("spec", seed=7, scale=TINY)
        assert sim.plan.base_seed == 7
        assert dict(sim.plan.scenarios[0].params) == {}
        run = sim.mapper("PAM").dropper("react").run()
        assert run.specs[0].seed == 7

    def test_alias_names_canonicalised(self):
        sim = Simulation.scenario("spec").mapper("MinMin").dropper("none")
        assert sim.plan.mappers[0].name == "MM"
        assert sim.plan.droppers[0].name == "react"

    def test_unknown_names_fail_fast_with_suggestions(self):
        with pytest.raises(KeyError) as err:
            Simulation.scenario("spec").mapper("PAN")
        assert "did you mean" in str(err.value)
        with pytest.raises(KeyError):
            Simulation.scenario("speck")
        with pytest.raises(KeyError):
            Simulation.scenario("spec").dropper("heuristics")

    def test_invalid_parameters_fail_fast(self):
        with pytest.raises(TypeError):
            Simulation.scenario("spec").dropper("heuristic", nope=1)
        with pytest.raises(ValueError):
            Simulation.scenario("spec").level("50k")
        with pytest.raises(ValueError):
            Simulation.scenario("spec").scale(0.0)
        with pytest.raises(ValueError):
            Simulation.scenario("spec").trials(0)
        with pytest.raises(ValueError):
            Simulation.scenario("spec").parallel(0)
        # Checked as plan files check them: nothing truncates or coerces.
        for method, value, key in (
                ("trials", 2.5, "execution.trials"),
                ("queue_capacity", 6.9, "workload.queue_capacity"),
                ("batch_window", 31.7, "workload.batch_window"),
                ("with_cost", "no", "execution.with_cost")):
            with pytest.raises(ValueError, match=key):
                getattr(Simulation.scenario("spec"), method)(value)

    def test_build_specs(self):
        specs = (Simulation.scenario("spec", level="30k", scale=0.01)
                 .mapper("MM").dropper("heuristic", eta=3, beta=2.0)
                 .trials(3, base_seed=10).with_cost().build_specs())
        assert len(specs) == 3
        assert [s.seed for s in specs] == [10, 11, 12]
        assert all(isinstance(s, TrialSpec) for s in specs)
        assert specs[0].dropper_params == (("beta", 2.0), ("eta", 3))
        assert specs[0].with_cost is True
        assert specs[0].mapper_name == "MM"
        assert specs[0].scoring == "vector"


class TestRunResult:
    @pytest.fixture(scope="class")
    def run(self):
        return tiny_sim().trials(2, base_seed=3).with_cost().run()

    def test_run_end_to_end(self, run):
        assert isinstance(run, RunResult)
        assert run.num_trials == 2
        assert len(run.specs) == 2
        assert all(isinstance(t, TrialMetrics) for t in run.trials)
        assert 0.0 <= run.robustness_pct <= 100.0
        lo, hi = run.robustness_ci
        assert lo <= run.robustness_pct <= hi
        assert run.label == "PAM+Heuristic"

    def test_metric_lookup(self, run):
        for name in METRICS:
            assert isinstance(run.metric(name), float)
        with pytest.raises(ValueError):
            run.metric("nope")

    def test_summary_and_json(self, run):
        text = run.summary()
        assert "PAM+Heuristic" in text and "robustness" in text
        payload = json.loads(run.to_json())
        assert payload["num_trials"] == 2
        assert payload["config"]["mapper"] == "PAM"
        assert payload["robustness_pct"] == pytest.approx(run.robustness_pct)

    def test_cost_metric_requires_with_cost(self):
        run = tiny_sim().run()  # cost not enabled
        assert run.cost_per_completed_pct is None
        with pytest.raises(ValueError):
            run.metric("cost_per_completed_pct")


class TestQuickRun:
    def test_single_trial_returns_trial_metrics(self):
        metrics = quick_run(level="20k", mapper="MM", dropper="react",
                            scale=TINY, seed=1)
        assert isinstance(metrics, TrialMetrics)

    def test_multi_trial_returns_aggregated_run(self):
        result = quick_run(level="20k", mapper="MM", dropper="react",
                           scale=TINY, seed=1, trials=3)
        assert isinstance(result, RunResult)
        assert result.num_trials == 3
        # all trials actually executed on distinct seeds
        assert [s.seed for s in result.specs] == [1, 2, 3]


class TestLabelFallback:
    def test_builtin_droppers_keep_pretty_names(self):
        spec = tiny_sim().build_specs()[0]
        assert spec.label == "PAM+Heuristic"

    def test_custom_dropper_name_title_cased(self):
        spec = TrialSpec(scenario_name="spec", level="30k", scale=0.01,
                         gamma=1.0, queue_capacity=6, seed=0,
                         mapper_name="PAM", dropper_name="my-policy")
        assert spec.label == "PAM+My-Policy"


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return (Simulation.scenario("spec", level="20k", scale=TINY)
                .trials(2, base_seed=5)
                .sweep(mapper=["PAM", "MM"], dropper=["heuristic", "react"]))

    def test_grid_shape(self, sweep):
        assert isinstance(sweep, SweepResult)
        assert len(sweep) == 4
        assert sweep.axes == ("mapper", "dropper")
        combos = {(r.config["mapper"], r.config["dropper"]) for r in sweep}
        assert combos == {("PAM", "heuristic"), ("PAM", "react"),
                          ("MM", "heuristic"), ("MM", "react")}

    def test_best_and_table(self, sweep):
        best = sweep.best()
        assert isinstance(best, RunResult)
        assert best.robustness_pct == max(r.robustness_pct for r in sweep)
        worst_cost = sweep.best("makespan")  # minimised by default
        assert worst_cost.metric("makespan") == min(r.metric("makespan")
                                                    for r in sweep)
        table = sweep.table()
        assert "mapper" in table and "PAM" in table
        assert "best" in sweep.summary()
        payload = json.loads(sweep.to_json())
        assert len(payload["runs"]) == 4

    def test_sweep_shares_seeds_across_configurations(self, sweep):
        """Same base_seed => identical arrivals/deadlines in every config."""
        runs = {r.config["mapper"] + "/" + r.config["dropper"]: r for r in sweep}
        ref = runs["PAM/heuristic"].specs
        other = runs["MM/react"].specs
        assert [s.seed for s in ref] == [s.seed for s in other] == [5, 6]
        for spec_a, spec_b in zip(ref, other):
            scenario_a = build_scenario(
                spec_a.scenario_name, level=spec_a.level, scale=spec_a.scale,
                gamma=spec_a.gamma, seed=spec_a.seed,
                queue_capacity=spec_a.queue_capacity)
            scenario_b = build_scenario(
                spec_b.scenario_name, level=spec_b.level, scale=spec_b.scale,
                gamma=spec_b.gamma, seed=spec_b.seed,
                queue_capacity=spec_b.queue_capacity)
            assert [t.arrival for t in scenario_a.tasks] == \
                [t.arrival for t in scenario_b.tasks]
            assert [t.deadline for t in scenario_a.tasks] == \
                [t.deadline for t in scenario_b.tasks]
            assert [t.type_id for t in scenario_a.tasks] == \
                [t.type_id for t in scenario_b.tasks]

    def test_scenario_axis_resets_preset_params(self):
        """Sweeping scenarios must not leak one preset's params into another,
        but must keep the builder-level arrival-process choice."""
        sweep = (Simulation.scenario("homogeneous", num_machines=4, scale=TINY)
                 .arrivals("uniform").trials(1, base_seed=3)
                 .sweep(scenario=["homogeneous", "spec"]))
        assert [r.config["scenario"] for r in sweep] == ["homogeneous", "spec"]
        for run in sweep:
            assert run.specs[0].scenario_params == (("arrival", "uniform"),)

    def test_invalid_axes_rejected(self):
        sim = tiny_sim()
        with pytest.raises(ValueError):
            sim.sweep(nonsense=["a"])
        with pytest.raises(ValueError):
            sim.sweep(mapper=[])


class TestCustomMapperThroughBuilder:
    def test_registered_mapper_usable_by_name(self):
        @MAPPERS.register("_test_pam_clone", summary="PAM under another name.")
        class PamClone(PAM):
            name = "_test_pam_clone"

        try:
            run = (Simulation.scenario("spec", level="20k", scale=TINY)
                   .mapper("_test_pam_clone").dropper("react")
                   .trials(1, base_seed=3).run())
            reference = (Simulation.scenario("spec", level="20k", scale=TINY)
                         .mapper("PAM").dropper("react")
                         .trials(1, base_seed=3).run())
            # A behavioural clone on the same seed produces the same result.
            assert run.robustness_pct == pytest.approx(reference.robustness_pct)
        finally:
            MAPPERS.unregister("_test_pam_clone")


class TestArrivalProcessAxis:
    def test_uniform_arrivals_run(self):
        run = (Simulation.scenario("spec", level="20k", scale=TINY)
               .arrivals("uniform").mapper("PAM").dropper("react")
               .trials(1, base_seed=3).run())
        assert 0.0 <= run.robustness_pct <= 100.0
        assert run.specs[0].scenario_params == (("arrival", "uniform"),)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(KeyError):
            Simulation.scenario("spec").arrivals("gaussian")
