"""The optional model axes, declared once, and the one system constructor.

The paper's HC system (Eq. 1 completion-time PMFs, mapping, proactive
dropping) can be extended along four optional axes: the fold-numerics
profile, unmodelled execution uncertainty, timeline faults and the platform
topology.  Each is one row of :data:`AXES`; everything that has to know
about the axes derives from the table instead of naming them:

* validation and params freezing (:meth:`Axis.validate`,
  :func:`freeze_params`),
* the conditional serialization of plans and run configs
  (:func:`axis_payload`: an axis at its identity value writes no key, so
  artifacts written before the axis existed keep their bytes),
* the CLI flags of ``run``/``plan export``/``serve``,
* the axis keywords of every :class:`~repro.experiments.runner.TrialSpec`
  compiled from a plan (:func:`spec_kwargs`), and
* :func:`build_system`, the one place an :class:`HCSystem` is assembled
  from a spec.

A new axis is one row here plus its registry.  Registries are named by
attribute and resolved on first use, so this module adds no import cycle
with :mod:`repro.api.registries` (which imports the stream package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from ..mapping import make_heuristic
from ..records import SCALARS, Params, check_scalar, freeze_params
from ..sim.system import HCSystem, SystemConfig
from ..sim.trace import Trace

__all__ = ["Axis", "AXES", "AXES_BY_KEY", "REGISTRY_AXES", "Params",
           "SCALARS", "freeze_params", "check_scalar", "active_axes",
           "axis_payload", "spec_kwargs", "build_system"]


@dataclass(frozen=True)
class Axis:
    """One optional axis of the system.

    Attributes
    ----------
    plan_key:
        Field of :class:`~repro.api.plan.ExperimentPlan`, key of the
        serialized plan / run config, ``HCSystem``/``SystemConfig``
        keyword and CLI flag (``--faults``).
    spec_field:
        Field of ``TrialSpec``/``StreamSpec`` holding the value
        (``faults_name``).
    params_key:
        Field and serialized key of the axis parameters
        (``fault_params``; CLI flag ``--fault-param``), or ``None`` for an
        axis without a registry.
    identity:
        The value that disables the axis; it is never serialized.
    registry:
        Attribute name of the axis registry in :mod:`repro.api.registries`,
        or ``None`` when :class:`~repro.sim.system.SystemConfig` checks the
        value instead.
    """

    plan_key: str
    spec_field: str
    params_key: Optional[str]
    identity: str
    registry: Optional[str]

    @property
    def param_flag(self) -> str:
        """CLI flag of one parameter (``--fault-param``)."""
        assert self.params_key is not None
        return "--" + self.params_key[:-1].replace("_", "-")

    def resolve(self) -> Any:
        """The axis registry."""
        from . import registries
        return getattr(registries, str(self.registry))

    def validate(self, name: str, params: Params) -> str:
        """Check ``name`` and ``params`` against the registry and return
        the canonical name (raises ``KeyError``/``TypeError``)."""
        entry = self.resolve().get(name)
        entry.validate(dict(params))
        return entry.name

    def create(self, name: str, params: Params) -> Any:
        """Instantiate the axis model, or ``None`` at the identity value."""
        if name == self.identity:
            return None
        return self.resolve().create(name, **dict(params))


AXES: Tuple[Axis, ...] = (
    Axis("numerics", "numerics", None, "exact", None),
    Axis("uncertainty", "uncertainty_name", "uncertainty_params", "none",
         "UNCERTAINTY"),
    Axis("faults", "faults_name", "fault_params", "none", "FAULTS"),
    Axis("topology", "topology_name", "topology_params", "uniform",
         "TOPOLOGIES"),
)

#: The axes backed by a registry (they take parameters).
REGISTRY_AXES: Tuple[Axis, ...] = tuple(a for a in AXES if a.registry)

#: Rows by :attr:`Axis.plan_key`.
AXES_BY_KEY: Dict[str, Axis] = {a.plan_key: a for a in AXES}


def active_axes(plan: Any) -> Iterator[Tuple[Axis, str, Params]]:
    """``(axis, value, params)`` of every axis ``plan`` sets off its
    identity, read from plan-keyed fields."""
    for axis in AXES:
        value = getattr(plan, axis.plan_key)
        if value != axis.identity:
            params = getattr(plan, axis.params_key) if axis.params_key else ()
            yield axis, value, params


def axis_payload(plan: Any) -> Dict[str, Any]:
    """The serialized axis keys of ``plan``: each active axis writes its
    value, then its parameters when it has any."""
    payload: Dict[str, Any] = {}
    for axis, value, params in active_axes(plan):
        payload[axis.plan_key] = value
        if params:
            payload[str(axis.params_key)] = dict(params)
    return payload


def spec_kwargs(plan: Any) -> Dict[str, Any]:
    """Axis keywords of a ``TrialSpec`` compiled from ``plan``."""
    kwargs: Dict[str, Any] = {}
    for axis in AXES:
        kwargs[axis.spec_field] = getattr(plan, axis.plan_key)
        if axis.params_key:
            kwargs[axis.params_key] = getattr(plan, axis.params_key)
    return kwargs


def build_system(scenario: Any, spec: Any, rng: np.random.Generator,
                 fault_rng: Optional[np.random.Generator] = None,
                 trace: Optional[Trace] = None) -> HCSystem:
    """Assemble the :class:`HCSystem` a ``TrialSpec``/``StreamSpec``
    describes on ``scenario``'s platform and PET (no tasks submitted)."""
    from .registries import DROPPERS

    config = SystemConfig(
        queue_capacity=spec.queue_capacity, batch_window=spec.batch_window,
        numerics=spec.numerics,
        # Only TrialSpec carries the engine switches (the bit-identity
        # referees); any other spec runs the default engine.
        incremental=getattr(spec, "incremental", True),
        scoring=getattr(spec, "scoring", "vector"),
        small_plane_tasks=getattr(spec, "small_plane_tasks", None))
    models = {axis.plan_key: axis.create(getattr(spec, axis.spec_field),
                                         getattr(spec, str(axis.params_key)))
              for axis in REGISTRY_AXES}
    return HCSystem(
        machine_types=list(scenario.platform.machine_types),
        machines=scenario.build_machines(),
        task_types=list(scenario.task_types),
        pet=scenario.pet,
        mapper=make_heuristic(spec.mapper_name, **dict(spec.mapper_params)),
        dropper=DROPPERS.create(spec.dropper_name,
                                **dict(spec.dropper_params)),
        config=config, rng=rng, trace=trace, fault_rng=fault_rng, **models)
