"""Tests for the declarative ExperimentPlan: round-trip, validation, grid."""

import json

import numpy as np
import pytest

from repro.api import (ExperimentPlan, MemorySink, PairSpec, PlanError,
                       PointSpec, Simulation)
from repro.api.registry import UnknownNameError

TINY = 0.002


def tiny_plan(**overrides) -> ExperimentPlan:
    kwargs = dict(name="tiny", levels=["20k"], scales=[TINY],
                  mappers=["PAM", "MM"], droppers=["heuristic", "react"],
                  trials=2, base_seed=5)
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestConstructionAndValidation:
    def test_coercion_of_names_and_scalars(self):
        plan = ExperimentPlan(scenarios="spec", levels="30k", scales=0.01,
                              mappers="MinMin", droppers="none")
        assert plan.scenarios == (PointSpec("spec"),)
        assert plan.levels == ("30k",)
        # Aliases canonicalise through the registries.
        assert plan.mappers[0].name == "MM"
        assert plan.droppers[0].name == "react"

    def test_point_params_sorted_and_frozen(self):
        plan = tiny_plan(droppers=[{"name": "heuristic",
                                    "params": {"eta": 3, "beta": 1.5}}])
        assert plan.droppers[0].params == (("beta", 1.5), ("eta", 3))

    def test_unknown_mapper_did_you_mean(self):
        with pytest.raises(UnknownNameError) as err:
            tiny_plan(mappers=["PAN"])
        assert "did you mean" in str(err.value)

    def test_unknown_dropper_and_scenario_names(self):
        with pytest.raises(KeyError):
            tiny_plan(droppers=["heuristics"])
        with pytest.raises(KeyError):
            tiny_plan(scenarios=["speck"])
        with pytest.raises(KeyError):
            tiny_plan(arrivals=["gaussian"])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TypeError):
            tiny_plan(droppers=[{"name": "heuristic", "params": {"nope": 1}}])

    def test_reserved_scenario_params_rejected(self):
        with pytest.raises(PlanError, match="plan-level"):
            tiny_plan(scenarios=[{"name": "spec", "params": {"level": "20k"}}])

    def test_range_validation(self):
        with pytest.raises(PlanError):
            tiny_plan(levels=["50k"])
        with pytest.raises(PlanError):
            tiny_plan(scales=[0.0])
        with pytest.raises(PlanError):
            tiny_plan(gammas=[-1.0])
        with pytest.raises(PlanError):
            tiny_plan(trials=0)
        with pytest.raises(PlanError):
            tiny_plan(confidence=1.5)
        with pytest.raises(PlanError):
            tiny_plan(n_jobs=0)
        # Scalars are type-checked, not coerced: bool("no") is True and
        # int(2.7) is 2, and either would change the results.
        for key, value, message in [
            ("with_cost", "no",
             "execution.with_cost must be true or false, got 'no'"),
            ("with_cost", 1,
             "execution.with_cost must be true or false, got 1"),
            ("trials", 2.7, "execution.trials must be an integer, got 2.7"),
            ("trials", "x", "execution.trials must be an integer, got 'x'"),
            ("trials", True,
             "execution.trials must be an integer, got True"),
            ("confidence", "0.9",
             "execution.confidence must be a number, got '0.9'"),
            ("batch_window", 3.9,
             "workload.batch_window must be an integer, got 3.9"),
            ("scales", ["0.002"],
             "workload.scales must be a number, got '0.002'"),
        ]:
            with pytest.raises(PlanError) as err:
                tiny_plan(**{key: value})
            assert str(err.value) == message
        # Any integral or real number type is accepted and normalised.
        plan = tiny_plan(trials=np.int64(2), confidence=np.float32(0.5),
                         gammas=[1])
        assert (type(plan.trials), type(plan.confidence),
                type(plan.gammas[0])) == (int, float, float)

    def test_empty_axis_rejected(self):
        with pytest.raises(PlanError, match="no values"):
            tiny_plan(mappers=[])

    def test_unknown_metric_did_you_mean(self):
        with pytest.raises(PlanError, match="did you mean"):
            tiny_plan(metrics=["robustness_pc"])

    def test_unknown_sweep_axis_rejected(self):
        with pytest.raises(PlanError, match="cannot sweep over"):
            tiny_plan(sweep_axes=["speed"])

    def test_pairs_exclusive_with_grid(self):
        with pytest.raises(PlanError, match="pairs"):
            tiny_plan(pairs=[{"mapper": "PAM", "dropper": "react"}])

    def test_arrival_axis_conflicts_with_pinned_param(self):
        with pytest.raises(PlanError, match="arrival"):
            ExperimentPlan(
                scenarios=[{"name": "spec",
                            "params": {"arrival": "uniform"}}],
                arrivals=["poisson"], scales=[TINY])


class TestGridCompilation:
    def test_cell_count_and_order(self):
        plan = tiny_plan(levels=["20k", "30k"])
        cells = plan.cells()
        assert len(cells) == plan.num_cells() == 2 * 2 * 2
        # Canonical order: level varies slowest, dropper fastest.
        values = [dict(c.axis_values) for c in cells]
        assert [v["level"] for v in values] == ["20k"] * 4 + ["30k"] * 4
        assert [v["mapper"] for v in values] == ["PAM", "PAM", "MM", "MM"] * 2
        assert [v["dropper"] for v in values] == ["heuristic", "react"] * 4

    def test_specs_share_seeds_across_cells(self):
        plan = tiny_plan()
        cells = plan.cells()
        for cell in cells:
            assert [s.seed for s in cell.specs] == [5, 6]

    def test_pairs_grid(self):
        plan = ExperimentPlan(
            name="paired", levels=["20k"], scales=[TINY], trials=1,
            pairs=[
                {"mapper": "PAM", "dropper": {"name": "heuristic",
                                              "params": {"beta": 1.0}}},
                {"mapper": "MM", "dropper": "react"},
            ])
        cells = plan.cells()
        assert len(cells) == 2
        assert cells[0].specs[0].mapper_name == "PAM"
        assert cells[0].specs[0].dropper_params == (("beta", 1.0),)
        assert cells[1].specs[0].mapper_name == "MM"
        assert cells[1].label == "MM+ReactDrop"
        assert isinstance(plan.grid_pairs[0], PairSpec)

    def test_arrival_axis_threads_into_scenario_params(self):
        plan = ExperimentPlan(levels=["20k"], scales=[TINY],
                              arrivals=["poisson", "uniform"], trials=1)
        cells = plan.cells()
        assert len(cells) == 2
        assert cells[0].specs[0].scenario_params == (("arrival", "poisson"),)
        assert cells[1].specs[0].scenario_params == (("arrival", "uniform"),)
        assert [dict(c.axis_values)["arrival"] for c in cells] == \
            ["poisson", "uniform"]


class TestRoundTrip:
    @pytest.fixture()
    def rich_plan(self) -> ExperimentPlan:
        return ExperimentPlan(
            name="rich", levels=["20k", "40k"], scales=[TINY, 0.004],
            gammas=[1.0, 2.5],
            scenarios=[{"name": "homogeneous",
                        "params": {"num_machines": 4}}],
            arrivals=["uniform"],
            mappers=["PAM", {"name": "MM", "label": "MinMin"}],
            droppers=[{"name": "heuristic",
                       "params": {"beta": 1.5, "eta": 3},
                       "label": "Heuristic(beta=1.5)"}],
            trials=3, base_seed=11, queue_capacity=4, batch_window=16,
            confidence=0.9, with_cost=True, n_jobs=2,
            metrics=["robustness_pct", "makespan"])

    def test_dict_round_trip_idempotent(self, rich_plan):
        payload = rich_plan.to_dict()
        rebuilt = ExperimentPlan.from_dict(payload)
        assert rebuilt == rich_plan
        assert rebuilt.to_dict() == payload
        # to_dict is JSON-clean.
        assert json.loads(json.dumps(payload)) == payload

    def test_json_file_round_trip(self, rich_plan, tmp_path):
        path = tmp_path / "plan.json"
        rich_plan.to_file(str(path))
        assert ExperimentPlan.from_file(str(path)) == rich_plan

    def test_toml_file_round_trip(self, rich_plan, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "plan.toml"
        rich_plan.to_file(str(path))
        assert ExperimentPlan.from_file(str(path)) == rich_plan

    def test_pairs_round_trip(self, tmp_path):
        plan = ExperimentPlan(
            levels=["20k"], scales=[TINY],
            pairs=[{"mapper": "PAM", "dropper": "react",
                    "label": "baseline"}])
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_plan_key_did_you_mean(self):
        with pytest.raises(PlanError, match="did you mean 'workload'"):
            ExperimentPlan.from_dict({"workloads": {}})

    def test_unknown_nested_key_did_you_mean(self):
        with pytest.raises(PlanError, match="did you mean 'levels'"):
            ExperimentPlan.from_dict({"workload": {"level": ["20k"]}})
        with pytest.raises(PlanError, match="plan execution"):
            ExperimentPlan.from_dict({"execution": {"trails": 2}})

    @pytest.mark.parametrize("name,text", [
        ("plan.toml", '[execution]\nfaults = "crash-restart"\n'
                      'fault_params = 3\n'),
        ("plan.json", '{"execution": {"faults": "crash-restart", '
                      '"fault_params": 3}}'),
    ], ids=["toml", "json"])
    def test_axis_params_must_be_a_table(self, tmp_path, name, text):
        pytest.importorskip("tomllib")
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(PlanError, match="fault_params must be a table "
                                            "of KEY = VALUE, got int"):
            ExperimentPlan.from_file(str(path))

    def test_grid_pairs_and_product_mutually_exclusive(self):
        with pytest.raises(PlanError, match="not both"):
            ExperimentPlan.from_dict(
                {"grid": {"pairs": [{"mapper": "PAM", "dropper": "react"}],
                          "mappers": ["PAM"]}})

    def test_fingerprint_ignores_n_jobs_only(self, rich_plan):
        assert rich_plan.fingerprint() == \
            ExperimentPlan.from_dict(rich_plan.to_dict()).fingerprint()
        import dataclasses

        # Neither the worker count nor the interval level of the reported
        # summaries changes a trial, so neither changes the fingerprint.
        for same_work in (dataclasses.replace(rich_plan, n_jobs=7),
                          dataclasses.replace(rich_plan, confidence=0.99)):
            assert same_work.fingerprint() == rich_plan.fingerprint()
        for other in (dataclasses.replace(rich_plan, base_seed=12),
                      dataclasses.replace(rich_plan, with_cost=False)):
            assert other.fingerprint() != rich_plan.fingerprint()


class TestExecution:
    @pytest.fixture(scope="class")
    def executed(self):
        plan = tiny_plan()
        sink = MemorySink()
        result = plan.execute(sink=sink)
        return plan, sink, result

    def test_sweep_result_shape(self, executed):
        plan, sink, result = executed
        assert len(result) == 4
        assert result.axes == ("mapper", "dropper")
        assert [r.label for r in result] == \
            ["PAM heuristic", "PAM react", "MM heuristic", "MM react"]
        for run in result:
            assert run.num_trials == 2

    def test_sink_observed_every_cell(self, executed):
        plan, sink, result = executed
        assert len(sink.runs) == 4
        assert sink.restored == [False] * 4
        assert sink.result is result

    def test_matches_builder_sweep(self, executed):
        plan, _, result = executed
        sweep = (Simulation.scenario("spec", level="20k", scale=TINY)
                 .trials(2, base_seed=5)
                 .sweep(mapper=["PAM", "MM"],
                        dropper=["heuristic", "react"]))
        assert [r.trials for r in result] == [r.trials for r in sweep]
        assert [r.label for r in result] == [r.label for r in sweep]
        assert [dict(r.config) for r in result] == \
            [dict(r.config) for r in sweep]

    def test_callback_sink_streams(self):
        seen = []
        plan = tiny_plan(trials=1)
        plan.execute(sink=seen.append)
        assert len(seen) == 4

    def test_single_cell_label_matches_spec_pretty_name(self):
        plan = ExperimentPlan(levels=["20k"], scales=[TINY], trials=1,
                              mappers=["PAM"], droppers=["heuristic"])
        result = plan.execute()
        assert result.runs[0].label == "PAM+Heuristic"
        assert result.axes == ()

    def test_max_cells_truncates(self):
        plan = tiny_plan(trials=1)
        partial = plan.execute(max_cells=2)
        assert len(partial) == 2


class TestBuilderBridge:
    def test_build_plan_round_trips_run_config(self):
        sim = (Simulation.scenario("homogeneous", level="20k", scale=TINY,
                                   num_machines=4)
               .mapper("MM").dropper("heuristic", beta=2.0)
               .trials(2, base_seed=9).with_cost())
        plan = sim.build_plan()
        assert plan.cells()[0].specs == sim.build_specs()
        rebuilt = ExperimentPlan.from_dict(plan.to_dict())
        assert rebuilt.cells()[0].specs == sim.build_specs()

    def test_build_plan_sweep_axes_recorded(self):
        plan = (Simulation.scenario("spec", scale=TINY)
                .build_plan(mapper=["PAM", "MM"], level=["20k"]))
        assert plan.sweep_axes == ("level", "mapper")
        assert plan.swept_axes() == ("level", "mapper")

    def test_build_plan_rejects_unknown_axes(self):
        sim = Simulation.scenario("spec", scale=TINY)
        with pytest.raises(ValueError, match="cannot sweep over"):
            sim.build_plan(nonsense=["a"])
        with pytest.raises(ValueError, match="no values"):
            sim.build_plan(mapper=[])

    def test_describe_mentions_grid(self):
        text = tiny_plan().describe()
        assert "4 cells" in text and "PAM + heuristic" in text
        assert "fingerprint" in text
