"""Declarative, serializable experiment plans.

An :class:`ExperimentPlan` is the single description of an experiment grid
that every entry point of the package compiles to: the fluent builder (a
view over one plan, :attr:`Simulation.plan`, with :meth:`Simulation.sweep`
replacing its swept axes), the figure harness (each figure compiles to one
plan), :class:`~repro.experiments.config.ExperimentConfig` (a thin view
over plan defaults, validated by building one) and the CLI (``repro plan
run|resume|describe|export``; ``repro run`` flags compile to a plan
internally).  A plan is immutable, validated
at construction (names resolve through the :mod:`repro.api.registries`
registries, so typos fail fast with did-you-mean suggestions) and
round-trips losslessly through JSON and TOML::

    plan = ExperimentPlan(
        name="fig8-small",
        levels=["20k", "30k"],
        mappers=["PAM"],
        droppers=[{"name": "heuristic", "params": {"beta": 1.0, "eta": 2}},
                  "react"],
        scales=[0.002], trials=3, base_seed=42)
    plan.to_file("fig8.toml")
    same = ExperimentPlan.from_file("fig8.toml")
    assert same == plan

Execution happens through one funnel: :meth:`ExperimentPlan.execute` compiles
the grid to :class:`~repro.experiments.runner.TrialSpec` cells, drives them
through a :class:`~repro.experiments.runner.TrialPool` (in this process when
``n_jobs == 1``) and returns a
:class:`~repro.api.results.SweepResult`.  Results stream through pluggable
sinks (:mod:`repro.api.sinks`); the JSONL spool sink makes long sweeps
*resumable*::

    plan.execute(sink=JsonlSpoolSink("sweep.jsonl"))   # interrupted ...
    plan.resume("sweep.jsonl")                         # skips finished cells

A resumed sweep is bit-identical to an uninterrupted one: completed cells
are replayed from the spool's lossless per-trial payloads and missing cells
re-run from the same seeds.
"""

from __future__ import annotations

import difflib
import hashlib
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, fields, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

if TYPE_CHECKING:
    from ..experiments.runner import TrialSpec
    from .registry import Registry

from ..metrics.collector import TrialMetrics, aggregate_trials
from ..sim.system import SystemConfig
from ..workload.deadlines import check_gamma
from ..workload.scenario import OVERSUBSCRIPTION_LEVELS
from ..records import check_keys
from .axes import (AXES, REGISTRY_AXES, SCALARS, active_axes, axis_payload,
                   check_scalar, freeze_params, spec_kwargs)
from .registries import ARRIVALS, DROPPERS, MAPPERS, SCENARIOS
from .results import METRICS, RunResult, SweepResult
from .sinks import (CallbackSink, JsonlSpoolSink, ResultSink, SpoolError,
                    read_spool)

__all__ = ["ExperimentPlan", "PointSpec", "PairSpec", "PlanCell", "PlanError",
           "PLAN_AXES"]

#: Canonical axis order of the plan grid (first axis varies slowest).  The
#: relative order of the six sweepable builder axes matches
#: :data:`repro.api.builder.SWEEPABLE_AXES`, so a sweep expressed as a plan
#: enumerates its grid in the exact order ``Simulation.sweep`` always has;
#: ``arrival`` is the plan-only seventh axis.
PLAN_AXES: Tuple[str, ...] = ("scenario", "arrival", "level", "mapper",
                              "dropper", "scale", "gamma")

#: Scenario parameters owned by plan-level axes; they may not also appear in
#: a scenario entry's ``params`` (the plan would silently shadow them).
_RESERVED_SCENARIO_PARAMS = ("level", "scale", "gamma", "seed",
                             "queue_capacity")

#: ``[workload]`` keys.
_WORKLOAD_KEYS = ("scenarios", "arrivals", "levels", "scales", "gammas",
                  "queue_capacity", "batch_window")

#: ``[execution]`` keys besides the optional axes of
#: :data:`repro.api.axes.AXES`.
_EXECUTION_KEYS = ("trials", "base_seed", "n_jobs", "with_cost", "confidence")

#: Engine switches older plans carried; they never changed results, so
#: they are read and dropped.
_LEGACY_EXECUTION_KEYS = ("incremental", "scoring")

#: ``[execution]`` keys that never change results, left out of the
#: fingerprint.
_UNFINGERPRINTED = ("n_jobs", "confidence")


class PlanError(ValueError):
    """Raised when a plan (or plan file) fails validation."""


def _digest(payload: Mapping[str, Any], unhashed: Sequence[str]) -> str:
    """16 hex digits of sha256 over ``payload``'s sorted-key JSON, without
    its ``unhashed`` ``[execution]`` keys."""
    execution = dict(payload.get("execution", {}))
    canonical = json.dumps({**payload, "execution": {
        k: v for k, v in execution.items() if k not in unhashed}},
        sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Grid points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PointSpec:
    """One grid entry: a registry name plus per-point parameters.

    Attributes
    ----------
    name:
        Registry name (canonicalised against the owning registry, so
        aliases like ``"MinMin"`` serialise as ``"MM"``).
    params:
        Factory keyword arguments, as a sorted tuple of pairs.
    label:
        Optional display label used in cell labels (e.g.
        ``"Heuristic(eta=2)"``); ``None`` falls back to the default
        pretty name.
    """

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    label: Optional[str] = None

    @classmethod
    def coerce(cls, value: Union[str, Mapping[str, Any], "PointSpec"],
               where: str) -> "PointSpec":
        """Build a point from a name string, a mapping, or pass one through."""
        if isinstance(value, PointSpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            check_keys(value, ("name", "params", "label"), where,
                       PlanError)
            if "name" not in value:
                raise PlanError(f"{where} entry needs a 'name'")
            params = value.get("params") or {}
            if not isinstance(params, Mapping):
                raise PlanError(f"{where} 'params' must be a table/mapping")
            return cls(name=str(value["name"]),
                       params=freeze_params(params, where),
                       label=value.get("label"))
        raise PlanError(f"{where} entry must be a name or a table, "
                        f"got {type(value).__name__}")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"name": self.name}
        if self.params:
            payload["params"] = dict(self.params)
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PointSpec":
        """Rebuild a point from :meth:`to_dict` output (strict keys)."""
        return cls.coerce(payload, "point")


@dataclass(frozen=True)
class PairSpec:
    """An explicit (mapper, dropper) grid point.

    ``pairs`` replaces the cartesian ``mappers`` x ``droppers`` product for
    grids that evaluate *matched* configurations (e.g. the paper's Fig. 9
    compares PAM+Threshold, PAM+Heuristic and MM+ReactDrop -- three pairs,
    not a 2x3 product).
    """

    mapper: PointSpec
    dropper: PointSpec
    label: Optional[str] = None

    @classmethod
    def coerce(cls, value: Union[Mapping[str, Any], "PairSpec"],
               where: str) -> "PairSpec":
        if isinstance(value, PairSpec):
            return value
        if isinstance(value, Mapping):
            check_keys(value, ("mapper", "dropper", "label"), where,
                       PlanError)
            if "mapper" not in value or "dropper" not in value:
                raise PlanError(f"{where} entry needs 'mapper' and 'dropper'")
            return cls(mapper=PointSpec.coerce(value["mapper"],
                                               f"{where}.mapper"),
                       dropper=PointSpec.coerce(value["dropper"],
                                                f"{where}.dropper"),
                       label=value.get("label"))
        raise PlanError(f"{where} entry must be a table with 'mapper' and "
                        f"'dropper', got {type(value).__name__}")

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"mapper": self.mapper.to_dict(),
                                   "dropper": self.dropper.to_dict()}
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PairSpec":
        """Rebuild a pair from :meth:`to_dict` output (strict keys)."""
        return cls.coerce(payload, "pair")


@dataclass(frozen=True)
class PlanCell:
    """One compiled grid cell: axis values, label, config and trial specs."""

    index: int
    axis_values: Tuple[Tuple[str, Any], ...]
    label: str
    config: Mapping[str, Any]
    specs: Tuple[Any, ...]  # TrialSpec


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentPlan:
    """Immutable, validated, serializable description of an experiment grid.

    Axis fields (``scenarios``/``arrivals``/``levels``/``mappers``/
    ``droppers``/``pairs``/``scales``/``gammas``) define the grid -- their
    cartesian product in :data:`PLAN_AXES` order -- while the remaining
    fields are shared knobs of every cell.  Constructor arguments are
    coerced liberally (names, mappings and scalars become
    :class:`PointSpec` tuples / value tuples), then validated strictly:
    registry names resolve with did-you-mean suggestions, numeric knobs are
    range-checked, and reserved/conflicting keys are rejected.
    """

    name: str = "plan"
    scenarios: Tuple[PointSpec, ...] = (PointSpec("spec"),)
    arrivals: Tuple[str, ...] = ()
    levels: Tuple[str, ...] = ("30k",)
    mappers: Tuple[PointSpec, ...] = (PointSpec("PAM"),)
    droppers: Tuple[PointSpec, ...] = (PointSpec("react"),)
    pairs: Tuple[PairSpec, ...] = ()
    scales: Tuple[float, ...] = (0.01,)
    gammas: Tuple[float, ...] = (1.0,)
    trials: int = 1
    base_seed: int = 0
    queue_capacity: int = 6
    batch_window: int = 32
    confidence: float = 0.95
    with_cost: bool = False
    #: The optional axes (rows of :data:`repro.api.axes.AXES`): the
    #: mapping-score arithmetic profile ("exact"/"fast"), the
    #: unmodelled-delay injector, the timeline fault process and the
    #: platform topology, each applied to every trial.  An axis at its
    #: identity value is left out of the serialised plan, so plans written
    #: before it existed keep their fingerprints (and spools).
    numerics: str = "exact"
    uncertainty: str = "none"
    uncertainty_params: Tuple[Tuple[str, Any], ...] = ()
    faults: str = "none"
    fault_params: Tuple[Tuple[str, Any], ...] = ()
    topology: str = "uniform"
    topology_params: Tuple[Tuple[str, Any], ...] = ()
    n_jobs: int = 1
    metrics: Tuple[str, ...] = ("robustness_pct",)
    #: Axes to report on the resulting :class:`SweepResult` (and to build
    #: cell labels from).  Empty means "every axis with more than one
    #: value"; ``Simulation.build_plan`` pins it to the axes the caller
    #: explicitly swept, preserving ``Simulation.sweep`` semantics.
    sweep_axes: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Validation / coercion
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        set_ = object.__setattr__
        set_(self, "name", str(self.name))
        set_(self, "scenarios", tuple(
            self._canonical_point(PointSpec.coerce(p, "scenario"), SCENARIOS)
            for p in self._as_list(self.scenarios, "scenarios")))
        set_(self, "arrivals", tuple(
            ARRIVALS.get(str(a)).name
            for a in self._as_list(self.arrivals, "arrivals", allow_empty=True)))
        set_(self, "levels", tuple(
            str(lv) for lv in self._as_list(self.levels, "levels")))
        set_(self, "mappers", tuple(
            self._canonical_point(PointSpec.coerce(p, "mapper"), MAPPERS)
            for p in self._as_list(self.mappers, "mappers")))
        set_(self, "droppers", tuple(
            self._canonical_point(PointSpec.coerce(p, "dropper"), DROPPERS)
            for p in self._as_list(self.droppers, "droppers")))
        set_(self, "pairs", tuple(
            PairSpec(mapper=self._canonical_point(pair.mapper, MAPPERS),
                     dropper=self._canonical_point(pair.dropper, DROPPERS),
                     label=pair.label)
            for pair in (PairSpec.coerce(p, "pair")
                         for p in self._as_list(self.pairs, "pairs",
                                                allow_empty=True))))
        set_(self, "metrics", tuple(
            str(m) for m in self._as_list(self.metrics, "metrics")))
        set_(self, "sweep_axes", tuple(
            str(a) for a in self._as_list(self.sweep_axes, "sweep_axes",
                                          allow_empty=True)))
        try:
            for key in ("scales", "gammas"):
                set_(self, key, tuple(
                    check_scalar(value, "float", f"workload.{key}")
                    for value in self._as_list(getattr(self, key), key)))
            for gamma in self.gammas:
                check_gamma(gamma)
            for f in fields(self):
                if f.type in SCALARS:
                    where = ("workload" if f.name in _WORKLOAD_KEYS
                             else "execution")
                    set_(self, f.name, check_scalar(
                        getattr(self, f.name), f.type, f"{where}.{f.name}"))
            for axis in AXES:
                set_(self, axis.plan_key, str(getattr(self, axis.plan_key)))
                if axis.params_key:
                    set_(self, axis.params_key, freeze_params(
                        getattr(self, axis.params_key), axis.params_key))
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        self._validate()

    @staticmethod
    def _as_list(value: Any, what: str, allow_empty: bool = False) -> List[Any]:
        if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
            value = [value]
        value = list(value)
        if not value and not allow_empty:
            raise PlanError(f"axis {what!r} has no values to sweep")
        return value

    @staticmethod
    def _canonical_point(point: PointSpec, registry: "Registry[Any]") \
            -> PointSpec:
        entry = registry.get(point.name)  # raises with did-you-mean on typos
        params = dict(point.params)
        if registry is SCENARIOS:
            reserved = sorted(set(params) & set(_RESERVED_SCENARIO_PARAMS))
            if reserved:
                raise PlanError(
                    f"scenario {entry.name!r} params may not set "
                    f"{', '.join(map(repr, reserved))}: these are plan-level "
                    f"axes/knobs (levels, scales, gammas, base_seed, "
                    f"queue_capacity)")
        entry.validate(params)
        return replace(point, name=entry.name)

    def _validate(self) -> None:
        for level in self.levels:
            if level not in OVERSUBSCRIPTION_LEVELS:
                raise PlanError(
                    f"unknown oversubscription level {level!r}; expected one "
                    f"of {sorted(OVERSUBSCRIPTION_LEVELS)}")
        for scale in self.scales:
            if not 0 < scale <= 1.0:
                raise PlanError("every scale must be within (0, 1]")
        if self.pairs and (tuple(p.name for p in self.mappers) != ("PAM",)
                           or tuple(d.name for d in self.droppers)
                           != ("react",)
                           or any(p.params for p in self.mappers)
                           or any(d.params for d in self.droppers)):
            raise PlanError("'pairs' replaces the mapper x dropper product; "
                            "leave 'mappers'/'droppers' unset when using it")
        if self.arrivals:
            for scenario in self.scenarios:
                if "arrival" in dict(scenario.params):
                    raise PlanError(
                        f"scenario {scenario.name!r} pins an 'arrival' param "
                        f"while the plan also sweeps an arrivals axis; "
                        f"use one or the other")
        if self.trials < 1:
            raise PlanError("need at least one trial")
        if self.queue_capacity < 1:
            raise PlanError("queue capacity must be at least 1")
        if self.batch_window < 1:
            raise PlanError("batch window must be at least 1")
        if not 0.0 < self.confidence < 1.0:
            raise PlanError("confidence must be in (0, 1)")
        try:
            SystemConfig(numerics=self.numerics)
            for axis in REGISTRY_AXES:
                axis.validate(getattr(self, axis.plan_key),
                              getattr(self, str(axis.params_key)))
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(str(exc)) from None
        if self.n_jobs < 1:
            raise PlanError("n_jobs must be at least 1")
        for metric in self.metrics:
            if metric not in METRICS:
                close = difflib.get_close_matches(metric, sorted(METRICS), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise PlanError(f"unknown metric {metric!r}{hint} "
                                f"(known: {', '.join(sorted(METRICS))})")
        for axis in self.sweep_axes:
            if axis not in PLAN_AXES:
                raise PlanError(
                    f"cannot sweep over {axis!r}; sweepable axes: "
                    f"{', '.join(PLAN_AXES)}")

    # ------------------------------------------------------------------
    # Grid compilation
    # ------------------------------------------------------------------
    @property
    def grid_pairs(self) -> Tuple[PairSpec, ...]:
        """The effective (mapper, dropper) axis: explicit pairs or product."""
        if self.pairs:
            return self.pairs
        return tuple(PairSpec(mapper=m, dropper=d)
                     for m, d in itertools.product(self.mappers,
                                                   self.droppers))

    def axis_lengths(self) -> Dict[str, int]:
        """Number of values per canonical axis (pairs count as both)."""
        pair_len = len(self.pairs) if self.pairs else None
        return {
            "scenario": len(self.scenarios),
            "arrival": max(len(self.arrivals), 1),
            "level": len(self.levels),
            "mapper": pair_len if pair_len is not None else len(self.mappers),
            "dropper": pair_len if pair_len is not None else len(self.droppers),
            "scale": len(self.scales),
            "gamma": len(self.gammas),
        }

    def swept_axes(self) -> Tuple[str, ...]:
        """Axes reported on results: explicit ``sweep_axes`` or auto (>1)."""
        if self.sweep_axes:
            return tuple(a for a in PLAN_AXES if a in self.sweep_axes)
        lengths = self.axis_lengths()
        return tuple(a for a in PLAN_AXES if lengths[a] > 1)

    def num_cells(self) -> int:
        lengths = self.axis_lengths()
        pairs = len(self.grid_pairs)
        return (lengths["scenario"] * lengths["arrival"] * lengths["level"]
                * pairs * lengths["scale"] * lengths["gamma"])

    def cells(self) -> Tuple[PlanCell, ...]:
        """Compile the grid into executable cells, in canonical axis order."""
        from ..experiments.runner import TrialSpec

        swept = set(self.swept_axes())
        paired = bool(self.pairs)
        axes = spec_kwargs(self)
        cells: List[PlanCell] = []
        arrivals: Tuple[Optional[str], ...] = self.arrivals or (None,)
        for scenario in self.scenarios:
            for arrival in arrivals:
                scenario_params = dict(scenario.params)
                if arrival is not None:
                    scenario_params["arrival"] = arrival
                frozen_scenario_params = freeze_params(scenario_params,
                                                       "scenario params")
                for level in self.levels:
                    for pair in self.grid_pairs:
                        mapper, dropper = pair.mapper, pair.dropper
                        for scale in self.scales:
                            for gamma in self.gammas:
                                specs = tuple(
                                    TrialSpec(
                                        scenario_name=scenario.name,
                                        level=level, scale=scale, gamma=gamma,
                                        queue_capacity=self.queue_capacity,
                                        seed=self.base_seed + k,
                                        mapper_name=mapper.name,
                                        dropper_name=dropper.name,
                                        dropper_params=dropper.params,
                                        mapper_params=mapper.params,
                                        scenario_params=frozen_scenario_params,
                                        batch_window=self.batch_window,
                                        with_cost=self.with_cost, **axes)
                                    for k in range(self.trials))
                                axis_values = (
                                    ("scenario", scenario.name),
                                    ("arrival", arrival),
                                    ("level", level),
                                    ("mapper", mapper.name),
                                    ("dropper", dropper.name),
                                    ("scale", scale),
                                    ("gamma", gamma))
                                label = self._cell_label(
                                    swept, paired, scenario, arrival, level,
                                    pair, scale, gamma, specs)
                                config = self._cell_config(
                                    scenario, arrival, frozen_scenario_params,
                                    level, mapper, dropper, scale, gamma)
                                cells.append(PlanCell(
                                    index=len(cells),
                                    axis_values=axis_values, label=label,
                                    config=config, specs=specs))
        return tuple(cells)

    def _cell_label(self, swept: Set[str], paired: bool, scenario: PointSpec,
                    arrival: Optional[str], level: str, pair: PairSpec,
                    scale: float, gamma: float,
                    specs: Sequence["TrialSpec"]) -> str:
        pair_display = (pair.label
                        or (pair.dropper.label and
                            f"{pair.mapper.label or pair.mapper.name}"
                            f"+{pair.dropper.label}")
                        or specs[0].label)
        tokens: List[str] = []
        if "scenario" in swept:
            tokens.append(scenario.name)
        if "arrival" in swept and arrival is not None:
            tokens.append(arrival)
        if "level" in swept:
            tokens.append(level)
        if paired and ("mapper" in swept or "dropper" in swept):
            tokens.append(pair_display)
        else:
            if "mapper" in swept:
                tokens.append(pair.mapper.label or pair.mapper.name)
            if "dropper" in swept:
                tokens.append(pair.dropper.label or pair.dropper.name)
        if "scale" in swept:
            tokens.append(str(scale))
        if "gamma" in swept:
            tokens.append(str(gamma))
        return " ".join(tokens) if tokens else pair_display

    def _cell_config(self, scenario: PointSpec, arrival: Optional[str],
                     frozen_scenario_params: Tuple[Tuple[str, Any], ...],
                     level: str, mapper: PointSpec, dropper: PointSpec,
                     scale: float, gamma: float) -> Dict[str, Any]:
        config: Dict[str, Any] = {
            "scenario": scenario.name,
            "level": level,
            "scale": scale,
            "gamma": gamma,
            "queue_capacity": self.queue_capacity,
            "batch_window": self.batch_window,
            "mapper": mapper.name,
            "dropper": dropper.name,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "with_cost": self.with_cost,
        }
        if arrival is not None:
            config["arrival"] = arrival
        config.update(axis_payload(self))
        if mapper.params:
            config["mapper_params"] = dict(mapper.params)
        if dropper.params:
            config["dropper_params"] = dict(dropper.params)
        if frozen_scenario_params:
            config["scenario_params"] = dict(frozen_scenario_params)
        return config

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical plain-dict representation (lossless round-trip)."""
        workload: Dict[str, Any] = {
            "scenarios": [s.to_dict() for s in self.scenarios],
            "levels": list(self.levels),
            "scales": list(self.scales),
            "gammas": list(self.gammas),
            "queue_capacity": self.queue_capacity,
            "batch_window": self.batch_window,
        }
        if self.arrivals:
            workload["arrivals"] = list(self.arrivals)
        grid: Dict[str, Any] = {}
        if self.pairs:
            grid["pairs"] = [p.to_dict() for p in self.pairs]
        else:
            grid["mappers"] = [m.to_dict() for m in self.mappers]
            grid["droppers"] = [d.to_dict() for d in self.droppers]
        execution: Dict[str, Any] = {
            "trials": self.trials,
            "base_seed": self.base_seed,
            "n_jobs": self.n_jobs,
            "with_cost": self.with_cost,
            "confidence": self.confidence,
        }
        execution.update(axis_payload(self))
        payload: Dict[str, Any] = {
            "name": self.name,
            "metrics": list(self.metrics),
            "workload": workload,
            "grid": grid,
            "execution": execution,
        }
        if self.sweep_axes:
            payload["sweep_axes"] = list(self.sweep_axes)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentPlan":
        """Build (and validate) a plan from its dict form.

        Unknown keys raise :class:`PlanError` with did-you-mean hints;
        unknown registry names surface the registries' own suggestions.
        The legacy ``[execution]`` keys ``incremental``/``scoring`` are
        read and dropped.
        """
        if not isinstance(payload, Mapping):
            raise PlanError(f"plan payload must be a mapping, "
                            f"got {type(payload).__name__}")
        check_keys(payload, ("name", "metrics", "workload", "grid",
                             "execution", "sweep_axes"), "plan", PlanError)
        for section in ("workload", "grid", "execution"):
            value = payload.get(section, {})
            if not isinstance(value, Mapping):
                raise PlanError(f"plan {section} must be a table, "
                                f"got {type(value).__name__}")
        workload = payload.get("workload", {})
        check_keys(workload, _WORKLOAD_KEYS, "plan workload", PlanError)
        grid = payload.get("grid", {})
        check_keys(grid, ("mappers", "droppers", "pairs"), "plan grid",
                   PlanError)
        execution = payload.get("execution", {})
        execution_keys = _EXECUTION_KEYS + tuple(
            key for axis in AXES
            for key in (axis.plan_key, axis.params_key) if key)
        check_keys(execution, execution_keys + _LEGACY_EXECUTION_KEYS,
                   "plan execution", PlanError)
        if "pairs" in grid and ("mappers" in grid or "droppers" in grid):
            raise PlanError("plan grid takes either 'pairs' or "
                            "'mappers'/'droppers', not both")
        kwargs: Dict[str, Any] = {}
        for section, keys in ((payload, ("name", "metrics", "sweep_axes")),
                              (workload, _WORKLOAD_KEYS),
                              (grid, ("mappers", "droppers", "pairs")),
                              (execution, execution_keys)):
            kwargs.update((key, section[key]) for key in keys
                          if key in section)
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_toml(self) -> str:
        return _dumps_toml(self.to_dict())

    def to_file(self, path: str) -> None:
        """Write the plan to ``path`` (format chosen by extension)."""
        text = (self.to_toml() if str(path).endswith(".toml")
                else self.to_json() + "\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentPlan":
        """Load a plan from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(_load_file(path))

    def fingerprint(self) -> str:
        """Stable identity of the experiment a plan describes.

        Knobs that do not change results (``n_jobs``, ``confidence``) are
        excluded: a plan run with another worker count or summarised at
        another interval level produces the same trials, so it must resume
        the same spool.
        """
        return _digest(self.to_dict(), _UNFINGERPRINTED)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable summary: axes, grid size, estimated work."""
        from ..workload.scenario import ScenarioSpec

        lengths = self.axis_lengths()
        lines = [f"plan {self.name!r}  (fingerprint {self.fingerprint()})"]
        axis_bits = []
        for axis in PLAN_AXES:
            if axis in ("mapper", "dropper") and self.pairs:
                continue
            axis_bits.append(f"{axis} x{lengths[axis]}")
        if self.pairs:
            axis_bits.insert(3, f"pair x{len(self.pairs)}")
        lines.append("  axes    : " + ", ".join(axis_bits))
        lines.append(f"  grid    : {self.num_cells()} cells x {self.trials} "
                     f"trial{'s' if self.trials != 1 else ''} = "
                     f"{self.num_cells() * self.trials} runs "
                     f"(seeds {self.base_seed}..."
                     f"{self.base_seed + self.trials - 1})")
        total_tasks = 0
        for scenario in self.scenarios:
            for level in self.levels:
                for scale in self.scales:
                    spec = ScenarioSpec.from_dict({
                        "name": scenario.name, "level": level, "scale": scale,
                        "queue_capacity": self.queue_capacity})
                    total_tasks += (spec.num_tasks * len(self.gammas)
                                    * max(len(self.arrivals), 1)
                                    * len(self.grid_pairs) * self.trials)
        lines.append(f"  workload: ~{total_tasks} simulated tasks total")
        lines.append(f"  engine  : numerics={self.numerics} "
                     f"n_jobs={self.n_jobs} with_cost={self.with_cost}")
        for axis, value, params in active_axes(self):
            if axis.registry:
                lines.append(f"  {axis.plan_key:<8}: {value} "
                             f"{dict(params) or ''}".rstrip())
        lines.append(f"  metrics : {', '.join(self.metrics)}")
        for pair in self.grid_pairs:
            mapper_params = dict(pair.mapper.params)
            dropper_params = dict(pair.dropper.params)
            extras = []
            if mapper_params:
                extras.append(f"mapper_params={mapper_params}")
            if dropper_params:
                extras.append(f"dropper_params={dropper_params}")
            suffix = ("  [" + ", ".join(extras) + "]") if extras else ""
            lines.append(f"    {pair.mapper.name} + {pair.dropper.name}"
                         f"{suffix}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Execution funnel
    # ------------------------------------------------------------------
    def _package(self, cell: PlanCell,
                 trials: Sequence[Any]) -> RunResult:
        trials = tuple(trials)
        aggregate = aggregate_trials(trials, confidence=self.confidence)
        return RunResult(label=cell.label, config=cell.config,
                         specs=cell.specs, trials=trials, aggregate=aggregate)

    @staticmethod
    def _resolve_sink(sink: Union[None, ResultSink,
                                  Callable[[Any], None]]) -> ResultSink:
        if sink is None:
            return ResultSink()
        if isinstance(sink, ResultSink):
            return sink
        if callable(sink):
            return CallbackSink(sink)
        raise TypeError(f"sink must be a ResultSink or callable, "
                        f"got {type(sink).__name__}")

    def execute(self, sink: Union[None, ResultSink,
                                  Callable[[Any], None]] = None,
                n_jobs: Optional[int] = None,
                completed: Optional[Mapping[int, Sequence[Any]]] = None,
                max_cells: Optional[int] = None) -> SweepResult:
        """Run the grid and return a :class:`SweepResult` in grid order.

        This is the single execution funnel of the package: the fluent
        builder's ``run``/``sweep``, the figure harness and the CLI all end
        up here.  ``sink`` observes completed cells (a bare callable is
        wrapped in a :class:`~repro.api.sinks.CallbackSink`); ``n_jobs``
        overrides the plan's worker count; ``completed`` maps cell indices
        to already-collected :class:`TrialMetrics` (the resume path), which
        are repackaged without re-running; ``max_cells`` stops after that
        many *fresh* cells (the deterministic-interruption hook used by the
        resume smoke tests) and returns a partial result.
        """
        cells = self.cells()
        resolved = self._resolve_sink(sink)
        jobs = self.n_jobs if n_jobs is None else int(n_jobs)
        if jobs < 1:
            raise PlanError("n_jobs must be at least 1")
        resolved.open(self)
        runs: List[Optional[RunResult]] = [None] * len(cells)

        def finish(cell: PlanCell, trials: Sequence[Any],
                   restored: bool = False) -> None:
            runs[cell.index] = self._package(cell, trials)
            resolved.cell(cell, runs[cell.index], restored=restored)

        completed = dict(completed or {})
        for cell in cells:
            trials = completed.get(cell.index)
            if trials is None:
                continue
            if len(trials) != self.trials:
                raise PlanError(
                    f"cell {cell.index} restored with {len(trials)} trials; "
                    f"plan expects {self.trials}")
            finish(cell, trials, restored=True)

        pending = [cell for cell in cells if runs[cell.index] is None]
        if max_cells is not None:
            if max_cells < 0:
                raise PlanError("max_cells cannot be negative")
            pending = pending[:max_cells]

        from ..experiments.runner import TrialPool

        total_trials = sum(len(cell.specs) for cell in pending)
        with TrialPool(jobs if total_trials > 1 else 1) as pool:
            pool.run_cells(
                [list(cell.specs) for cell in pending],
                on_cell=lambda ci, trials: finish(pending[ci], trials))

        result = SweepResult(
            runs=tuple(run for run in runs if run is not None),
            axes=self.swept_axes())
        resolved.close(result)
        return result

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def run_spooled(self, spool_path: str,
                    sink: Union[None, ResultSink,
                                Callable[[Any], None]] = None,
                    n_jobs: Optional[int] = None,
                    max_cells: Optional[int] = None) -> SweepResult:
        """Execute with a JSONL spool attached (fresh or continuing).

        An existing spool is parsed exactly once: the parse feeds both the
        restored-cell table and the appending sink (long grids carry every
        trial payload in the spool, so re-reading it per consumer would
        triple the startup cost).
        """
        preparsed = None
        completed: Dict[int, List[Any]] = {}
        if (os.path.exists(spool_path)
                and os.path.getsize(spool_path) > 0):
            preparsed = read_spool(spool_path)
            self.verify_spool_header(spool_path, preparsed[0])
            completed = self._restore_trials(spool_path, preparsed[1])
        sinks: List[ResultSink] = [JsonlSpoolSink(spool_path,
                                                  preparsed=preparsed)]
        if sink is not None:
            sinks.append(self._resolve_sink(sink))
        return self.execute(sink=_TeeSink(sinks), n_jobs=n_jobs,
                            completed=completed, max_cells=max_cells)

    def resume(self, spool_path: str,
               sink: Union[None, ResultSink, Callable[[Any], None]] = None,
               n_jobs: Optional[int] = None) -> SweepResult:
        """Finish an interrupted spooled sweep.

        Cells recorded in the spool are replayed from their lossless
        per-trial payloads (bit-identical metrics, no re-execution); the
        rest run fresh from the plan's seeds and are appended to the same
        spool.  The returned :class:`SweepResult` is indistinguishable from
        one produced by an uninterrupted :meth:`execute`.
        """
        if not os.path.exists(spool_path):
            raise SpoolError(f"spool file {spool_path!r} does not exist")
        return self.run_spooled(spool_path, sink=sink, n_jobs=n_jobs)

    @classmethod
    def from_spool(cls, spool_path: str) -> "ExperimentPlan":
        """Recover the plan pinned in a spool's header line."""
        header, _ = read_spool(spool_path)
        plan = cls.from_dict(header["plan"])
        plan.verify_spool_header(spool_path, header)
        return plan

    def verify_spool_header(self, spool_path: str,
                            header: Mapping[str, Any]) -> None:
        """Raise :class:`SpoolError` unless the spool with this parsed
        ``header`` pins a plan with this plan's fingerprint.

        The header's stored fingerprint must be its plan's, as computed now
        or as older builds stamped it (the stored plan JSON hashed without
        ``execution.n_jobs``), so spools written before ``confidence`` and
        the engine switches left the fingerprint still resume.
        """
        pinned = ExperimentPlan.from_dict(header["plan"]).fingerprint()
        stamped = header["fingerprint"]
        if stamped not in (pinned, _digest(header["plan"], ("n_jobs",))):
            raise SpoolError(
                f"spool {spool_path!r} header is internally inconsistent: "
                f"its plan hashes to {pinned}, header says {stamped}")
        if pinned != self.fingerprint():
            raise SpoolError(
                f"spool {spool_path!r} was written by a different plan "
                f"(fingerprint {pinned} != {self.fingerprint()})")

    def _restore_trials(self, spool_path: str,
                        cells: Mapping[int, List[Dict[str, Any]]]
                        ) -> Dict[int, List[Any]]:
        """Complete spooled cells as reconstructed TrialMetrics.

        Short cells (fewer trials than the plan demands) are left out so
        the execute pass re-runs them; the appending spool sink then
        overwrites their stale record.
        """
        n = self.num_cells()
        restored: Dict[int, List[Any]] = {}
        for index, trials in cells.items():
            if not 0 <= index < n:
                raise SpoolError(f"spool cell index {index} is outside the "
                                 f"plan's {n}-cell grid")
            if len(trials) != self.trials:
                continue
            # read_spool checked every payload, so these decode cleanly.
            restored[index] = [TrialMetrics.from_dict(t) for t in trials]
        return restored


class _TeeSink(ResultSink):
    """Fans sink events out to several sinks (spool + user callback)."""

    def __init__(self, sinks: Sequence[ResultSink]):
        self._sinks = list(sinks)

    def open(self, plan: Any) -> None:
        for sink in self._sinks:
            sink.open(plan)

    def cell(self, cell: Any, run: Any, restored: bool = False) -> None:
        for sink in self._sinks:
            sink.cell(cell, run, restored=restored)

    def close(self, result: Any) -> None:
        for sink in self._sinks:
            sink.close(result)


# ----------------------------------------------------------------------
# Minimal TOML support
# ----------------------------------------------------------------------
_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _toml_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) \
            else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)  # JSON escaping is valid TOML basic-string
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise PlanError(f"cannot serialise {type(value).__name__} to TOML")


def _dumps_toml_table(path: str, table: Mapping[str, Any],
                      lines: List[str]) -> None:
    scalars = [(k, v) for k, v in table.items()
               if not isinstance(v, Mapping)
               and not (isinstance(v, (list, tuple)) and v
                        and all(isinstance(i, Mapping) for i in v))]
    subtables = [(k, v) for k, v in table.items() if isinstance(v, Mapping)]
    arrays = [(k, v) for k, v in table.items()
              if isinstance(v, (list, tuple)) and v
              and all(isinstance(i, Mapping) for i in v)]
    for key, value in scalars:
        lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
    for key, value in subtables:
        sub_path = f"{path}.{_toml_key(key)}" if path else _toml_key(key)
        lines.append("")
        lines.append(f"[{sub_path}]")
        _dumps_toml_table(sub_path, value, lines)
    for key, items in arrays:
        sub_path = f"{path}.{_toml_key(key)}" if path else _toml_key(key)
        for item in items:
            lines.append("")
            lines.append(f"[[{sub_path}]]")
            _dumps_toml_table(sub_path, item, lines)


def _dumps_toml(payload: Mapping[str, Any]) -> str:
    """Serialise a plan payload as TOML (scalars, tables, table arrays)."""
    lines: List[str] = []
    _dumps_toml_table("", payload, lines)
    return "\n".join(lines).lstrip("\n") + "\n"


def _load_file(path: str) -> Any:
    """The payload of a ``.toml`` or ``.json`` plan file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if not str(path).endswith(".toml"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"{path!r} is not valid JSON: {exc}") from None
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise PlanError(
                "reading TOML plans needs Python 3.11+ (tomllib) or the "
                "'tomli' package; write the plan as .json instead") from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise PlanError(f"invalid TOML plan: {exc}") from None
