"""Fluent, immutable builder for simulation runs and parameter sweeps.

:class:`Simulation` is the high-level entry point of the package::

    from repro.api import Simulation

    result = (Simulation.scenario("spec", level="30k")
              .mapper("PAM")
              .dropper("heuristic", beta=1.0, eta=2)
              .trials(5, base_seed=0)
              .parallel(4)
              .run())
    print(result.summary())

Every fluent method returns a *new* builder (the dataclass is frozen), so
partially-configured builders can be shared and forked safely::

    base = Simulation.scenario("spec").trials(3, base_seed=42)
    sweep = base.sweep(mapper=["PAM", "MM"], dropper=["heuristic", "react"])
    print(sweep.summary())

Names are validated against the :mod:`repro.api.registries` registries at
call time (with did-you-mean suggestions), so typos fail fast rather than
deep inside a run.  A builder compiles to the existing
:class:`~repro.experiments.runner.TrialSpec` machinery; sweeps share the
same ``base_seed`` across every grid point, so all configurations are
evaluated on identical workload trials (same arrivals, same deadlines).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Mapping, Optional, Sequence,
                    Tuple)

from ..sim.system import SystemConfig
from ..workload.deadlines import check_gamma
from ..workload.scenario import OVERSUBSCRIPTION_LEVELS
from .axes import AXES_BY_KEY, REGISTRY_AXES
from .registries import ARRIVALS, DROPPERS, MAPPERS, SCENARIOS
from .results import RunResult, SweepResult

__all__ = ["Simulation", "SWEEPABLE_AXES"]

#: Axes accepted by :meth:`Simulation.sweep`, in canonical order.
SWEEPABLE_AXES: Tuple[str, ...] = ("scenario", "level", "mapper", "dropper",
                                   "scale", "gamma")


def _freeze(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Sorted, hashable, picklable view of a keyword-parameter dict."""
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class Simulation:
    """Immutable description of a simulation configuration.

    Instances are created with :meth:`Simulation.scenario` and refined with
    the fluent methods below; ``run()`` executes the configuration and
    ``sweep()`` evaluates a cartesian grid of variations.
    """

    scenario_name: str = "spec"
    scenario_params: Tuple[Tuple[str, Any], ...] = ()
    level_name: str = "30k"
    scale_value: float = 0.01
    gamma_value: float = 1.0
    queue_capacity_value: int = 6
    batch_window_value: int = 32
    mapper_name: str = "PAM"
    mapper_params: Tuple[Tuple[str, Any], ...] = ()
    dropper_name: str = "react"
    dropper_params: Tuple[Tuple[str, Any], ...] = ()
    num_trials: int = 1
    base_seed: int = 0
    n_jobs: int = 1
    cost_enabled: bool = False
    confidence_value: float = 0.95
    numerics_profile: str = "exact"
    uncertainty_name: str = "none"
    uncertainty_params: Tuple[Tuple[str, Any], ...] = ()
    faults_name: str = "none"
    fault_params: Tuple[Tuple[str, Any], ...] = ()
    topology_name: str = "uniform"
    topology_params: Tuple[Tuple[str, Any], ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def scenario(cls, name: str = "spec", *, level: Optional[str] = None,
                 scale: Optional[float] = None, gamma: Optional[float] = None,
                 queue_capacity: Optional[int] = None,
                 seed: Optional[int] = None,
                 **params: Any) -> "Simulation":
        """Start a builder from a registered scenario preset.

        ``level``/``scale``/``gamma``/``queue_capacity``/``seed`` map onto
        the builder's dedicated knobs (``seed`` becomes the base seed); any
        other keyword is passed through to the scenario factory (e.g.
        ``num_machines`` for "homogeneous").
        """
        entry = SCENARIOS.get(name)  # raises with suggestions on typos
        entry.validate({**params,
                        **{k: v for k, v in (("level", level), ("scale", scale),
                                             ("gamma", gamma),
                                             ("queue_capacity", queue_capacity),
                                             ("seed", seed))
                           if v is not None}})
        sim = cls(scenario_name=entry.name, scenario_params=_freeze(params))
        if level is not None:
            sim = sim.level(level)
        if scale is not None:
            sim = sim.scale(scale)
        if gamma is not None:
            sim = sim.gamma(gamma)
        if queue_capacity is not None:
            sim = sim.queue_capacity(queue_capacity)
        if seed is not None:
            sim = sim.seed(seed)
        return sim

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def mapper(self, name: str, **params: Any) -> "Simulation":
        """Select the mapping heuristic by registry name."""
        entry = MAPPERS.get(name)
        entry.validate(params)
        return replace(self, mapper_name=entry.name,
                       mapper_params=_freeze(params))

    def dropper(self, name: str, **params: Any) -> "Simulation":
        """Select the dropping policy by registry name."""
        entry = DROPPERS.get(name)
        entry.validate(params)
        return replace(self, dropper_name=entry.name,
                       dropper_params=_freeze(params))

    def arrivals(self, name: str) -> "Simulation":
        """Select the arrival process used to generate the task stream.

        The process is instantiated by the scenario with the rate implied by
        its oversubscription level, so it takes no free parameters here.
        """
        entry = ARRIVALS.get(name)
        scenario_params = dict(self.scenario_params)
        scenario_params["arrival"] = entry.name
        return replace(self, scenario_params=_freeze(scenario_params))

    def uncertainty(self, name: str = "none", **params: Any) -> "Simulation":
        """Inject unmodelled execution delay by registry name.

        Selects a model from the :data:`repro.api.registries.UNCERTAINTY`
        registry ("none", "network_latency", "machine_stall", "composed");
        every sampled execution time is perturbed through it, emulating the
        gap between the PET's model and a real platform.  ``"none"``
        (default) disables the injection.
        """
        return self._bind_axis("uncertainty", name, params)

    def faults(self, name: str = "none", **params: Any) -> "Simulation":
        """Inject timeline faults by registry name.

        Selects a fault process from the
        :data:`repro.api.registries.FAULTS` registry ("none",
        "crash-restart", "slowdown", "partition"); the process emits
        timed fault events -- machine crashes with restart after a repair
        delay, execution-slowdown windows, network partitions -- onto the
        simulation timeline from a dedicated seeded RNG stream, so
        enabling faults never perturbs arrivals or PET samples.
        ``"none"`` (default) disables the injection.
        """
        return self._bind_axis("faults", name, params)

    def topology(self, name: str = "uniform", **params: Any) -> "Simulation":
        """Select the platform topology by registry name.

        Selects a topology from the
        :data:`repro.api.registries.TOPOLOGIES` registry ("uniform",
        "star-uplink", "tiered-edge-cloud", "custom"); machines become
        nodes on a bandwidth/latency graph and every completion-time PMF
        composes the data-transfer delay of the task's payload with its
        execution PMF, so mapping scores and dropping decisions price
        locality automatically.  Transfer schedules are deterministic and
        RNG-free, so enabling a topology never perturbs arrivals, PET
        samples or fault schedules.  ``"uniform"`` (default, all machines
        at zero cost) disables the axis.
        """
        return self._bind_axis("topology", name, params)

    def _bind_axis(self, key: str, name: str,
                   params: Mapping[str, Any]) -> "Simulation":
        axis = AXES_BY_KEY[key]
        frozen = _freeze(params)
        return replace(self, **{axis.spec_field: axis.validate(name, frozen),
                                str(axis.params_key): frozen})

    def level(self, level: str) -> "Simulation":
        """Set the oversubscription level label ("20k", "30k", "40k")."""
        if level not in OVERSUBSCRIPTION_LEVELS:
            raise ValueError(f"unknown oversubscription level {level!r}; "
                             f"expected one of {sorted(OVERSUBSCRIPTION_LEVELS)}")
        return replace(self, level_name=level)

    def scale(self, scale: float) -> "Simulation":
        """Set the fraction of the paper's task count to simulate."""
        if not 0 < scale <= 1.0:
            raise ValueError("scale must be within (0, 1]")
        return replace(self, scale_value=float(scale))

    def gamma(self, gamma: float) -> "Simulation":
        """Set the deadline slack coefficient."""
        check_gamma(gamma)
        return replace(self, gamma_value=float(gamma))

    def queue_capacity(self, capacity: int) -> "Simulation":
        """Set the machine-queue capacity (including the running task)."""
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        return replace(self, queue_capacity_value=int(capacity))

    def batch_window(self, window: int) -> "Simulation":
        """Set the mapper's batch-queue window size."""
        if window < 1:
            raise ValueError("batch window must be at least 1")
        return replace(self, batch_window_value=int(window))

    def trials(self, n: int, base_seed: Optional[int] = None) -> "Simulation":
        """Set the trial count; trial ``k`` uses seed ``base_seed + k``."""
        if n < 1:
            raise ValueError("need at least one trial")
        seed = self.base_seed if base_seed is None else int(base_seed)
        return replace(self, num_trials=int(n), base_seed=seed)

    def seed(self, base_seed: int) -> "Simulation":
        """Set the base workload seed without changing the trial count."""
        return replace(self, base_seed=int(base_seed))

    def parallel(self, n_jobs: int) -> "Simulation":
        """Fan trials out over ``n_jobs`` worker processes (1 = sequential).

        Worker processes import :mod:`repro` afresh, so custom mappers /
        droppers / scenarios must be registered at import time of a module
        the workers also import (not interactively) to be resolvable there.
        """
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        return replace(self, n_jobs=int(n_jobs))

    def with_cost(self, enabled: bool = True) -> "Simulation":
        """Attach a cost report to every trial's metrics."""
        return replace(self, cost_enabled=bool(enabled))

    def numerics(self, profile: str = "exact") -> "Simulation":
        """Select the mapping-score arithmetic profile (``"exact"``/``"fast"``).

        ``"exact"`` (default) keeps every score bit-identical to the naive
        reference -- the repository's headline reproducibility contract.
        ``"fast"`` serves chance-of-success scores from a closed-form dot
        product against cached execution CDFs and expected-completion
        scores from closed-form moment algebra, trading float ordering
        for speed within a documented sup-norm tolerance
        (:data:`repro.core.completion.FAST_FOLD_SUP_NORM_TOL`); committed
        completion PMFs stay exact.  Unlike the engine switches of
        :class:`~repro.experiments.runner.TrialSpec` (``incremental``,
        ``scoring``) this *is* a (tolerance-bounded) semantic switch, so it
        is serialised on plans whenever it is not ``"exact"``.
        """
        SystemConfig(numerics=profile)
        return replace(self, numerics_profile=profile)

    def confidence(self, confidence: float) -> "Simulation":
        """Set the confidence level of aggregated intervals."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        return replace(self, confidence_value=float(confidence))

    def configure(self, config: "ExperimentConfig") -> "Simulation":
        """Apply an :class:`~repro.experiments.config.ExperimentConfig`."""
        return replace(self, scale_value=config.scale, gamma_value=config.gamma,
                       queue_capacity_value=config.queue_capacity,
                       batch_window_value=config.batch_window,
                       num_trials=config.trials, base_seed=config.base_seed,
                       n_jobs=config.n_jobs,
                       confidence_value=config.confidence)

    # ------------------------------------------------------------------
    # Compilation & execution
    # ------------------------------------------------------------------
    def build_specs(self) -> Tuple["TrialSpec", ...]:
        """Compile the configuration into picklable per-trial specs."""
        return self.build_plan().cells()[0].specs

    def describe_config(self) -> Dict[str, Any]:
        """The configuration as a plain dict (stored on results)."""
        return dict(self.build_plan().cells()[0].config)

    def run(self, label: Optional[str] = None) -> RunResult:
        """Execute all trials and return an aggregated :class:`RunResult`.

        The one-cell plan of :meth:`build_plan` runs through
        :meth:`~repro.api.plan.ExperimentPlan.execute`, on a
        :class:`~repro.experiments.runner.TrialPool` when ``n_jobs > 1``.
        """
        run = self.build_plan().execute().runs[0]
        return replace(run, label=label) if label else run

    def build_plan(self, name: Optional[str] = None,
                   **axes: Sequence[Any]) -> "ExperimentPlan":
        """Compile the builder (plus optional sweep axes) into a plan.

        The returned :class:`~repro.api.plan.ExperimentPlan` is the
        serializable twin of this configuration: ``sim.build_plan().to_file
        ("run.toml")`` captures exactly what ``sim.run()`` / ``sim.sweep()``
        would execute, and ``plan.execute()`` reproduces it (same specs,
        same seeds, same grid order).  Axis keywords mirror
        :meth:`sweep` -- swept ``mapper``/``dropper`` values reset that
        axis's parameters and a swept ``scenario`` keeps only the
        builder-level arrival-process choice.
        """
        from .plan import ExperimentPlan, PointSpec

        unknown = sorted(set(axes) - set(SWEEPABLE_AXES))
        if unknown:
            raise ValueError(f"cannot sweep over {', '.join(map(repr, unknown))}; "
                             f"sweepable axes: {', '.join(SWEEPABLE_AXES)}")
        names = [axis for axis in SWEEPABLE_AXES if axis in axes]
        for axis in names:
            if not list(axes[axis]):
                raise ValueError(f"axis {axis!r} has no values to sweep")

        if "scenario" in axes:
            # Like the mapper/dropper axes, sweeping scenarios resets their
            # extra parameters (they are preset-specific); the builder-level
            # arrival-process choice is kept, as every preset accepts it.
            arrival = {k: v for k, v in self.scenario_params
                       if k == "arrival"}
            scenarios = [PointSpec(name=str(v), params=_freeze(arrival))
                         for v in axes["scenario"]]
        else:
            scenarios = [PointSpec(name=self.scenario_name,
                                   params=self.scenario_params)]
        if "mapper" in axes:
            mappers = [PointSpec(name=str(v)) for v in axes["mapper"]]
        else:
            mappers = [PointSpec(name=self.mapper_name,
                                 params=self.mapper_params)]
        if "dropper" in axes:
            droppers = [PointSpec(name=str(v)) for v in axes["dropper"]]
        else:
            droppers = [PointSpec(name=self.dropper_name,
                                  params=self.dropper_params)]
        return ExperimentPlan(
            name=name if name is not None else ("sweep" if names else "run"),
            scenarios=scenarios,
            levels=(list(axes["level"]) if "level" in axes
                    else [self.level_name]),
            mappers=mappers,
            droppers=droppers,
            scales=(list(axes["scale"]) if "scale" in axes
                    else [self.scale_value]),
            gammas=(list(axes["gamma"]) if "gamma" in axes
                    else [self.gamma_value]),
            trials=self.num_trials,
            base_seed=self.base_seed,
            queue_capacity=self.queue_capacity_value,
            batch_window=self.batch_window_value,
            confidence=self.confidence_value,
            with_cost=self.cost_enabled,
            numerics=self.numerics_profile,
            n_jobs=self.n_jobs,
            sweep_axes=tuple(names),
            **{key: getattr(self, field) for axis in REGISTRY_AXES
               for key, field in ((axis.plan_key, axis.spec_field),
                                  (axis.params_key, axis.params_key))})

    def sweep(self, on_result: Optional[Callable[[RunResult], None]] = None,
              **axes: Sequence[Any]) -> SweepResult:
        """Evaluate the cartesian product of axis values and collect results.

        Accepted axes: ``scenario``, ``level``, ``mapper``, ``dropper``,
        ``scale`` and ``gamma`` (see :data:`SWEEPABLE_AXES`); ``mapper``/
        ``dropper`` values reset any previously-set parameters of that axis.
        All grid points share this builder's ``base_seed``, so every
        configuration sees the identical workload trials::

            Simulation.scenario("spec").trials(3).sweep(
                mapper=["PAM", "MM"], dropper=["heuristic", "react"])

        The grid executes through the declarative plan funnel
        (:meth:`build_plan` + :meth:`~repro.api.plan.ExperimentPlan.execute`),
        so this is exactly equivalent to compiling the sweep to a plan file
        and running it.  With ``n_jobs > 1`` the whole grid runs on one
        persistent :class:`~repro.experiments.runner.TrialPool`: workers
        stay warm across cells, scenarios (shared between cells by the
        common seeds) are built once and shipped to each worker once, and
        every cell's trials are in flight together.  ``on_result`` -- when
        given -- is invoked with each cell's :class:`RunResult` as soon as
        that cell completes (possibly out of grid order), so long sweeps can
        stream progress; the returned :class:`SweepResult` is always in
        grid order.  Sequential sweeps reuse each distinct scenario across
        cells as well.
        """
        return self.build_plan(**axes).execute(sink=on_result)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (f"Simulation(scenario={self.scenario_name!r}, "
                f"level={self.level_name!r}, mapper={self.mapper_name!r}, "
                f"dropper={self.dropper_name!r}, trials={self.num_trials}, "
                f"base_seed={self.base_seed})")
