"""Tests of the TOPOLOGIES registry axis: builder hook, plan threading, CLI."""

import json

import pytest

from repro.api import TOPOLOGIES, ExperimentPlan, PlanError, Simulation
from repro.experiments.cli import main
from repro.platform.topology import (StarUplinkTopology,
                                     TieredEdgeCloudTopology,
                                     UniformTopology)


class TestRegistry:
    def test_topologies_registered(self):
        for name in ("uniform", "star-uplink", "tiered-edge-cloud",
                     "custom"):
            assert name in TOPOLOGIES

    def test_create_with_params(self):
        topo = TOPOLOGIES.create("star-uplink", bandwidth=32.0,
                                 task_bytes=128)
        assert isinstance(topo, StarUplinkTopology)
        assert topo.bandwidth == 32.0
        assert topo.task_bytes == 128

    def test_create_uniform(self):
        assert isinstance(TOPOLOGIES.create("uniform"), UniformTopology)

    def test_tiered_normalises_cloud_types(self):
        topo = TOPOLOGIES.create("tiered-edge-cloud", cloud_types=[1, 3])
        assert isinstance(topo, TieredEdgeCloudTopology)
        assert topo.cloud_types == (1, 3)

    def test_unknown_params_rejected(self):
        with pytest.raises(Exception):
            TOPOLOGIES.create("star-uplink", bogus=1)


class TestBuilderHook:
    def test_topology_threads_to_plan(self):
        sim = (Simulation().scenario("spec").scale(0.002).trials(1)
               .topology("tiered-edge-cloud", task_bytes=192))
        plan = sim.build_plan(name="t")
        assert plan.topology == "tiered-edge-cloud"
        assert plan.topology_params == (("task_bytes", 192),)

    def test_describe_config_reports_topology(self):
        sim = Simulation().scenario("spec").topology("star-uplink")
        assert sim.describe_config()["topology"] == "star-uplink"
        assert "topology" not in Simulation().describe_config()

    def test_builder_validates_name_and_params(self):
        with pytest.raises(KeyError):
            Simulation().topology("nope")
        with pytest.raises(Exception):
            Simulation().topology("star-uplink", bogus=1)

    def test_builder_is_immutable(self):
        base = Simulation().scenario("spec")
        derived = base.topology("star-uplink")
        assert base.plan.topology == "uniform"
        assert derived.plan.topology == "star-uplink"


class TestPlanThreading:
    def test_default_plan_omits_topology_keys(self):
        # Plans written before the topology axis existed must keep their
        # fingerprints, so "uniform" never serialises.
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1)
        assert "topology" not in plan.to_dict()["execution"]
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_uniform_fingerprint_is_unchanged_by_the_axis(self):
        clean = ExperimentPlan(name="p", scales=[0.002], trials=1)
        explicit = ExperimentPlan(name="p", scales=[0.002], trials=1,
                                  topology="uniform")
        assert clean.fingerprint() == explicit.fingerprint()

    def test_round_trip_with_topology(self, tmp_path):
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1,
                              topology="tiered-edge-cloud",
                              topology_params={"bandwidth": 48.0,
                                               "task_bytes": 192})
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.toml"
        plan.to_file(str(path))
        assert ExperimentPlan.from_file(str(path)) == plan

    def test_cells_carry_topology(self):
        plan = ExperimentPlan(name="p", scales=[0.002], trials=1,
                              topology="star-uplink",
                              topology_params={"task_bytes": 64})
        cell = plan.cells()[0]
        assert cell.specs[0].topology_name == "star-uplink"
        assert cell.specs[0].topology_params == (("task_bytes", 64),)
        assert cell.config["topology"] == "star-uplink"
        clean = ExperimentPlan(name="p", scales=[0.002], trials=1).cells()[0]
        assert "topology" not in clean.config

    def test_plan_validates_topology(self):
        with pytest.raises(PlanError):
            ExperimentPlan(name="p", scales=[0.002],
                           topology="tiered-edge-clod")
        with pytest.raises(PlanError):
            ExperimentPlan(name="p", scales=[0.002], topology="star-uplink",
                           topology_params={"bogus": 1})


class TestCli:
    def test_list_topologies(self, capsys):
        assert main(["list-topologies"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "star-uplink", "tiered-edge-cloud",
                     "custom"):
            assert name in out

    def test_run_with_topology_reports_config(self, capsys):
        code = main(["run", "--scale", "0.002", "--trials", "1", "--json",
                     "--topology", "tiered-edge-cloud",
                     "--topology-param", "task_bytes=192"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["topology"] == "tiered-edge-cloud"
        assert payload["config"]["topology_params"] == {"task_bytes": 192}

    def test_topology_param_requires_topology(self, capsys):
        assert main(["run", "--scale", "0.002", "--trials", "1",
                     "--topology-param", "task_bytes=192"]) == 2
        assert ("repro run: error: --topology-param requires --topology"
                in capsys.readouterr().err)

    def test_unknown_topology_name_prints_clean_error(self, capsys):
        assert main(["run", "--scale", "0.002", "--trials", "1",
                     "--topology", "tiered-edge-clod"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "tiered-edge-cloud" in err
