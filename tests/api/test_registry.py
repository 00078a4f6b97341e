"""Tests for the generic registry and the built-in registry contents."""

import pytest

from repro.api import (ARRIVALS, DROPPERS, MAPPERS, SCENARIOS,
                       DuplicateNameError, Registry, RegistryError,
                       UnknownNameError)
from repro.core.dropping import NoProactiveDropping, ProactiveHeuristicDropping
from repro.mapping import MinMin


class TestRegistryBasics:
    def test_add_and_create(self):
        reg = Registry("widget")
        reg.add("box", dict, params=())
        assert reg.create("box") == {}
        assert "box" in reg
        assert reg.list() == ["box"]
        assert len(reg) == 1

    def test_decorator_registration(self):
        reg = Registry("widget")

        @reg.register("make", params=("n",), summary="test factory")
        def factory(n=1):
            return ["x"] * n

        assert factory is reg.get("make").factory
        assert reg.create("make", n=3) == ["x", "x", "x"]
        assert reg.get("make").summary == "test factory"

    def test_aliases_resolve_to_same_entry(self):
        reg = Registry("widget")
        reg.add("box", dict, aliases=("crate", "carton"))
        assert reg.get("crate") is reg.get("box")
        assert reg.get("carton").name == "box"
        assert reg.get("box").aliases == ("crate", "carton")
        # list() holds canonical names only; names() includes aliases.
        assert reg.list() == ["box"]
        assert reg.names() == ["box", "carton", "crate"]

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.add("box", dict, aliases=("crate",))
        with pytest.raises(DuplicateNameError):
            reg.add("box", list)
        with pytest.raises(DuplicateNameError):
            reg.add("crate", list)  # alias collision
        with pytest.raises(DuplicateNameError):
            reg.add("fresh", list, aliases=("box",))

    def test_unknown_name_suggestions(self):
        reg = Registry("widget")
        reg.add("heuristic", dict)
        with pytest.raises(UnknownNameError) as err:
            reg.get("heuristics")
        assert "did you mean" in str(err.value)
        assert "'heuristic'" in str(err.value)

    def test_registry_error_is_key_error(self):
        reg = Registry("widget")
        with pytest.raises(KeyError):
            reg.create("nope")
        assert issubclass(RegistryError, KeyError)

    def test_param_validation(self):
        reg = Registry("widget")
        reg.add("box", dict, params=("a", "b"))
        assert reg.create("box", a=1) == {"a": 1}
        with pytest.raises(TypeError) as err:
            reg.create("box", c=1)
        assert "'c'" in str(err.value)
        assert "a, b" in str(err.value)
        # validate() checks without instantiating
        reg.validate("box", {"a": 1})
        with pytest.raises(TypeError):
            reg.validate("box", {"zz": 1})

    def test_open_params_pass_through(self):
        reg = Registry("widget")
        reg.add("box", dict)  # params=None: anything goes
        assert reg.create("box", anything=5) == {"anything": 5}

    def test_unregister(self):
        reg = Registry("widget")
        reg.add("box", dict, aliases=("crate",))
        reg.unregister("box")
        assert "box" not in reg
        assert "crate" not in reg
        reg.add("box", list)  # name free again

    def test_describe(self):
        reg = Registry("dropping policy")
        reg.add("box", dict, aliases=("crate",), params=("a",), summary="A box.")
        table = reg.describe()
        assert "Registered dropping policies:" in table
        assert "A box." in table and "crate" in table
        one = reg.describe("box")
        assert "parameters: a" in one


class TestBuiltinRegistries:
    def test_all_seed_mappers_discoverable(self):
        assert {"MM", "MSD", "PAM", "FCFS", "SJF", "EDF"} <= set(MAPPERS.list())
        assert MAPPERS.get("MinMin").name == "MM"  # alias preserved

    def test_all_seed_droppers_discoverable(self):
        assert {"react", "heuristic", "optimal", "threshold",
                "threshold-adaptive"} <= set(DROPPERS.list())
        assert DROPPERS.get("none").name == "react"  # alias preserved

    def test_all_seed_scenarios_discoverable(self):
        assert {"spec", "homogeneous", "transcoding"} <= set(SCENARIOS.list())

    def test_arrival_processes_discoverable(self):
        assert {"poisson", "uniform"} <= set(ARRIVALS.list())

    def test_create_returns_expected_types(self):
        assert isinstance(MAPPERS.create("MM"), MinMin)
        assert isinstance(DROPPERS.create("react"), NoProactiveDropping)
        dropper = DROPPERS.create("heuristic", beta=2.0, eta=3)
        assert isinstance(dropper, ProactiveHeuristicDropping)

    def test_legacy_entry_points_delegate(self):
        """Custom registrations are visible through the legacy factories."""
        from repro.mapping import make_heuristic

        MAPPERS.add("_test_mm", MinMin, params=())
        try:
            assert isinstance(make_heuristic("_test_mm"), MinMin)
        finally:
            MAPPERS.unregister("_test_mm")
