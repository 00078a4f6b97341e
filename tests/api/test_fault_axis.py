"""Tests of the FAULTS registry axis: builder hook, plan threading, CLI."""

import pytest

from repro.api import FAULTS, ExperimentPlan, PlanError, Simulation
from repro.experiments.cli import main
from repro.sim.fault_events import (CrashRestartProcess, NoFaults,
                                    PartitionProcess, SlowdownProcess)


class TestRegistry:
    def test_processes_registered(self):
        for name in ("none", "crash-restart", "slowdown", "partition"):
            assert name in FAULTS

    def test_create_with_params(self):
        process = FAULTS.create("crash-restart", mtbf=800.0, policy="drop")
        assert isinstance(process, CrashRestartProcess)
        assert process.mtbf == 800.0
        assert process.policy == "drop"

    def test_create_none(self):
        assert isinstance(FAULTS.create("none"), NoFaults)

    def test_factories_validate_values(self):
        with pytest.raises(ValueError):
            FAULTS.create("crash-restart", mtbf=-1.0)
        with pytest.raises(ValueError):
            FAULTS.create("slowdown", scope="rack")
        with pytest.raises(ValueError):
            FAULTS.create("partition", group_fraction=0.0)

    def test_describe_is_human_readable(self):
        assert "churn" in FAULTS.create("crash-restart").describe()
        assert isinstance(SlowdownProcess().describe(), str)
        assert isinstance(PartitionProcess().describe(), str)


class TestBuilderHook:
    def test_faults_thread_to_plan(self):
        sim = (Simulation().scenario("spec").scale(0.002).trials(1)
               .faults("crash-restart", mtbf=500.0))
        plan = sim.build_plan(name="f")
        assert plan.faults == "crash-restart"
        assert plan.fault_params == (("mtbf", 500.0),)

    def test_describe_config_reports_faults(self):
        sim = Simulation().scenario("spec").faults("partition")
        assert sim.describe_config()["faults"] == "partition"
        assert "faults" not in Simulation().describe_config()

    def test_builder_validates_name_and_params(self):
        with pytest.raises(KeyError):
            Simulation().faults("nope")
        with pytest.raises(Exception):
            Simulation().faults("slowdown", bogus=1)

    def test_builder_is_immutable(self):
        base = Simulation().scenario("spec")
        derived = base.faults("crash-restart")
        assert base.plan.faults == "none"
        assert derived.plan.faults == "crash-restart"


class TestPlanThreading:
    def test_default_plan_omits_fault_keys(self):
        # Plans written before the fault axis existed must keep their
        # fingerprints, so "none" never serialises.
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1)
        assert "faults" not in plan.to_dict()["execution"]
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_fault_free_fingerprint_is_unchanged_by_the_axis(self):
        clean = ExperimentPlan(name="p", scales=[0.002], trials=1)
        explicit = ExperimentPlan(name="p", scales=[0.002], trials=1,
                                  faults="none")
        assert clean.fingerprint() == explicit.fingerprint()

    def test_round_trip_with_faults(self, tmp_path):
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1,
                              faults="crash-restart",
                              fault_params={"mtbf": 500.0,
                                            "policy": "requeue"})
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.toml"
        plan.to_file(str(path))
        assert ExperimentPlan.from_file(str(path)) == plan

    def test_cells_carry_faults(self):
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1,
                              faults="slowdown")
        cell = plan.cells()[0]
        assert cell.specs[0].faults_name == "slowdown"
        assert cell.config["faults"] == "slowdown"
        clean = ExperimentPlan(name="p", scales=[0.002], trials=1).cells()[0]
        assert "faults" not in clean.config

    def test_plan_validates_faults(self):
        with pytest.raises(PlanError):
            ExperimentPlan(name="p", scales=[0.002], faults="crash-retart")
        with pytest.raises(PlanError):
            ExperimentPlan(name="p", scales=[0.002], faults="slowdown",
                           fault_params={"bogus": 1})


class TestCli:
    def test_list_faults(self, capsys):
        assert main(["list-faults"]) == 0
        out = capsys.readouterr().out
        for name in ("crash-restart", "slowdown", "partition"):
            assert name in out

    def test_run_with_faults_reports_config(self, capsys):
        code = main(["run", "--scale", "0.002", "--trials", "1", "--json",
                     "--faults", "crash-restart",
                     "--fault-param", "mtbf=200",
                     "--fault-param", "policy=drop"])
        assert code == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["faults"] == "crash-restart"
        assert payload["config"]["fault_params"] == {"mtbf": 200,
                                                     "policy": "drop"}

    def test_fault_param_requires_faults(self, capsys):
        assert main(["run", "--scale", "0.002", "--trials", "1",
                     "--fault-param", "mtbf=200"]) == 2
        assert ("repro run: error: --fault-param requires --faults"
                in capsys.readouterr().err)

    def test_unknown_fault_name_prints_clean_error(self, capsys):
        assert main(["run", "--scale", "0.002", "--trials", "1",
                     "--faults", "crash-retart"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "crash-restart" in err
