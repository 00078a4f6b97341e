"""Serialisation, threading and validation of the ``numerics`` profile.

The fast-numerics switch is tolerance-bounded rather than bit-identical, so
its configuration surface carries two compatibility contracts: (a) plans,
fingerprints and spool headers written before the axis existed must stay
byte-identical -- the key is serialised *only* when it departs from
``"exact"`` -- and (b) ``"fast"`` must refuse to run without the incremental
core it is built on, at every layer it can be configured from.
"""

import json

import pytest

from repro.api import ExperimentPlan, Simulation
from repro.api.plan import PlanError
from repro.sim.system import SystemConfig
from repro.stream.service import StreamSpec

TINY = 0.002


def tiny_plan(**overrides) -> ExperimentPlan:
    kwargs = dict(name="tiny", levels=["20k"], scales=[TINY],
                  mappers=["PAM"], droppers=["react"], trials=1, base_seed=5)
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestPlanSerialisation:
    def test_exact_is_never_serialised(self):
        """Pre-existing plan payloads stay byte-identical."""
        plan = tiny_plan()
        payload = json.dumps(plan.to_dict())
        assert "numerics" not in payload
        explicit = tiny_plan(numerics="exact")
        assert json.dumps(explicit.to_dict()) == payload

    def test_exact_fingerprint_unchanged(self):
        """Spools and fingerprints written before the axis existed match."""
        assert tiny_plan().fingerprint() \
            == tiny_plan(numerics="exact").fingerprint()

    def test_fast_round_trips(self):
        plan = tiny_plan(numerics="fast")
        payload = plan.to_dict()
        assert payload["execution"]["numerics"] == "fast"
        restored = ExperimentPlan.from_dict(payload)
        assert restored.numerics == "fast"
        assert restored.fingerprint() == plan.fingerprint()
        assert restored.fingerprint() != tiny_plan().fingerprint()

    def test_fast_reaches_cells_and_describe(self):
        plan = tiny_plan(numerics="fast")
        specs = [spec for cell in plan.cells() for spec in cell.specs]
        assert specs and all(s.numerics == "fast" for s in specs)
        assert all(s.incremental for s in specs)
        assert all(cell.config["numerics"] == "fast"
                   for cell in plan.cells())
        assert "numerics=fast" in plan.describe()
        exact = tiny_plan()
        assert all(s.numerics == "exact"
                   for cell in exact.cells() for spec in cell.specs
                   for s in [spec])
        assert all("numerics" not in cell.config for cell in exact.cells())

    def test_unknown_profile_rejected(self):
        with pytest.raises(PlanError, match="numerics"):
            tiny_plan(numerics="fused")


class TestBuilderThreading:
    def test_numerics_flows_into_specs_and_plan(self):
        sim = Simulation().scenario("spec").level("30k").scale(TINY) \
                          .numerics("fast")
        assert all(s.numerics == "fast" for s in sim.build_specs())
        assert sim.build_plan().numerics == "fast"
        assert sim.describe_config()["numerics"] == "fast"

    def test_default_leaves_config_untouched(self):
        sim = Simulation().scenario("spec").level("30k").scale(TINY)
        assert "numerics" not in sim.describe_config()
        assert all(s.numerics == "exact" for s in sim.build_specs())

    def test_builder_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="numerics"):
            Simulation().numerics("approximate")


class TestSystemConfigValidation:
    def test_fast_requires_incremental(self):
        with pytest.raises(ValueError, match="incremental"):
            SystemConfig(incremental=False, numerics="fast")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="numerics"):
            SystemConfig(numerics="fused")

    def test_fast_with_incremental_accepted(self):
        assert SystemConfig(incremental=True, numerics="fast").numerics \
            == "fast"


class TestStreamSpecCompatibility:
    def test_old_payload_restores_as_exact(self):
        """Snapshots written before the field existed default to exact."""
        spec = StreamSpec(traffic_name="steady", mapper_name="PAM",
                          dropper_name="react", seed=3)
        payload = spec.to_dict()
        assert payload.get("numerics", "exact") == "exact"
        payload.pop("numerics", None)
        assert StreamSpec.from_dict(payload).numerics == "exact"

    def test_fast_round_trips(self):
        spec = StreamSpec(traffic_name="steady", mapper_name="PAM",
                          dropper_name="react", seed=3, numerics="fast")
        assert StreamSpec.from_dict(spec.to_dict()).numerics == "fast"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="numerics"):
            StreamSpec(traffic_name="steady", mapper_name="PAM",
                       dropper_name="react", seed=3, numerics="fused")
