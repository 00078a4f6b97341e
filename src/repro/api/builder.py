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

A builder is a view over one :class:`~repro.api.plan.ExperimentPlan`
(:attr:`Simulation.plan`), so it accepts exactly what a plan file accepts:
names are validated against the :mod:`repro.api.registries` registries at
call time (with did-you-mean suggestions) and numbers are type- and
range-checked by the plan, so mistakes fail fast rather than deep inside a
run.  Sweeps share the same ``base_seed`` across every grid point, so all
configurations are evaluated on identical workload trials (same arrivals,
same deadlines).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional,
                    Sequence, Tuple)

from .axes import AXES_BY_KEY, freeze_params
from .plan import ExperimentPlan, PointSpec
from .registries import ARRIVALS, SCENARIOS
from .results import RunResult, SweepResult

if TYPE_CHECKING:
    from ..experiments.runner import TrialSpec

__all__ = ["Simulation", "SWEEPABLE_AXES"]

#: Axes accepted by :meth:`Simulation.sweep`, in canonical order.
SWEEPABLE_AXES: Tuple[str, ...] = ("scenario", "level", "mapper", "dropper",
                                   "scale", "gamma")


@dataclass(frozen=True)
class Simulation:
    """Fluent view over one single-cell :class:`ExperimentPlan`.

    Instances are created with :meth:`Simulation.scenario` and refined with
    the fluent methods below, each of which returns a new builder over a
    copy of :attr:`plan` with some fields replaced; the plan's constructor
    checks and coerces every value, exactly as it does for plan files.
    ``run()`` executes the configuration and ``sweep()`` evaluates a
    cartesian grid of variations.
    """

    plan: ExperimentPlan = field(
        default_factory=lambda: ExperimentPlan(name="run"))

    def __post_init__(self) -> None:
        cells = self.plan.num_cells()
        if cells != 1:
            raise ValueError(f"a Simulation views a one-cell plan, got "
                             f"{cells} cells; run a grid with plan.execute()")

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
        knobs = {k: v for k, v in (("level", level), ("scale", scale),
                                   ("gamma", gamma),
                                   ("queue_capacity", queue_capacity),
                                   ("seed", seed))
                 if v is not None}
        entry.validate({**params, **knobs})
        sim = cls()._with(scenarios=[{"name": entry.name, "params": params}])
        for knob, value in knobs.items():
            sim = getattr(sim, knob)(value)
        return sim

    def _with(self, **changes: Any) -> "Simulation":
        """A builder over a copy of the plan with ``changes`` applied."""
        return replace(self, plan=replace(self.plan, **changes))

    # ------------------------------------------------------------------
    # Fluent configuration
    # ------------------------------------------------------------------
    def mapper(self, name: str, **params: Any) -> "Simulation":
        """Select the mapping heuristic by registry name."""
        return self._with(mappers=[{"name": name, "params": params}])

    def dropper(self, name: str, **params: Any) -> "Simulation":
        """Select the dropping policy by registry name."""
        return self._with(droppers=[{"name": name, "params": params}])

    def arrivals(self, name: str) -> "Simulation":
        """Select the arrival process used to generate the task stream.

        The process is instantiated by the scenario with the rate implied by
        its oversubscription level, so it takes no free parameters here.
        """
        scenario = self.plan.scenarios[0]
        params = {**dict(scenario.params), "arrival": ARRIVALS.get(name).name}
        return self._with(scenarios=[{"name": scenario.name,
                                      "params": params}])

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
        # Checked here so that typos raise the registry's own
        # KeyError/TypeError rather than the plan's PlanError.
        axis = AXES_BY_KEY[key]
        frozen = freeze_params(params, str(axis.params_key))
        return self._with(**{key: axis.validate(name, frozen),
                             str(axis.params_key): frozen})

    def level(self, level: str) -> "Simulation":
        """Set the oversubscription level label ("20k", "30k", "40k")."""
        return self._with(levels=[level])

    def scale(self, scale: float) -> "Simulation":
        """Set the fraction of the paper's task count to simulate."""
        return self._with(scales=[scale])

    def gamma(self, gamma: float) -> "Simulation":
        """Set the deadline slack coefficient."""
        return self._with(gammas=[gamma])

    def queue_capacity(self, capacity: int) -> "Simulation":
        """Set the machine-queue capacity (including the running task)."""
        return self._with(queue_capacity=capacity)

    def batch_window(self, window: int) -> "Simulation":
        """Set the mapper's batch-queue window size."""
        return self._with(batch_window=window)

    def trials(self, n: int, base_seed: Optional[int] = None) -> "Simulation":
        """Set the trial count; trial ``k`` uses seed ``base_seed + k``."""
        seed = self.plan.base_seed if base_seed is None else base_seed
        return self._with(trials=n, base_seed=seed)

    def seed(self, base_seed: int) -> "Simulation":
        """Set the base workload seed without changing the trial count."""
        return self._with(base_seed=base_seed)

    def parallel(self, n_jobs: int) -> "Simulation":
        """Fan trials out over ``n_jobs`` worker processes (1 = sequential).

        Worker processes import :mod:`repro` afresh, so custom mappers /
        droppers / scenarios must be registered at import time of a module
        the workers also import (not interactively) to be resolvable there.
        """
        return self._with(n_jobs=n_jobs)

    def with_cost(self, enabled: bool = True) -> "Simulation":
        """Attach a cost report to every trial's metrics."""
        return self._with(with_cost=enabled)

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
        return self._with(numerics=profile)

    def confidence(self, confidence: float) -> "Simulation":
        """Set the confidence level of aggregated intervals."""
        return self._with(confidence=confidence)

    # ------------------------------------------------------------------
    # Compilation & execution
    # ------------------------------------------------------------------
    def build_specs(self) -> Tuple["TrialSpec", ...]:
        """Compile the configuration into picklable per-trial specs."""
        return self.plan.cells()[0].specs

    def describe_config(self) -> Dict[str, Any]:
        """The configuration as a plain dict (stored on results)."""
        return dict(self.plan.cells()[0].config)

    def run(self, label: Optional[str] = None) -> RunResult:
        """Execute all trials and return an aggregated :class:`RunResult`.

        The plan runs through
        :meth:`~repro.api.plan.ExperimentPlan.execute`, on a
        :class:`~repro.experiments.runner.TrialPool` when ``n_jobs > 1``.
        """
        run = self.plan.execute().runs[0]
        return replace(run, label=label) if label else run

    def build_plan(self, name: Optional[str] = None,
                   **axes: Sequence[Any]) -> ExperimentPlan:
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
        unknown = sorted(set(axes) - set(SWEEPABLE_AXES))
        if unknown:
            raise ValueError(f"cannot sweep over {', '.join(map(repr, unknown))}; "
                             f"sweepable axes: {', '.join(SWEEPABLE_AXES)}")
        names = [axis for axis in SWEEPABLE_AXES if axis in axes]
        values: Dict[str, Any] = {axis: list(axes[axis]) for axis in names}
        for axis in names:
            if not values[axis]:
                raise ValueError(f"axis {axis!r} has no values to sweep")
        if "scenario" in values:
            # Like the mapper/dropper axes, sweeping scenarios resets their
            # extra parameters (they are preset-specific); the builder-level
            # arrival-process choice is kept, as every preset accepts it.
            arrival = tuple((k, v) for k, v in self.plan.scenarios[0].params
                            if k == "arrival")
            values["scenario"] = [PointSpec(str(v), arrival)
                                  for v in values["scenario"]]
        for axis in ("mapper", "dropper"):
            if axis in values:
                values[axis] = [str(v) for v in values[axis]]
        # Each sweepable axis is the plan field of the same name plus "s".
        return replace(
            self.plan,
            name=name if name is not None else ("sweep" if names else "run"),
            sweep_axes=tuple(names),
            **{axis + "s": axis_values for axis, axis_values in values.items()})

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
        stay warm across cells and every cell's trials wait on one shared
        queue that whichever worker is free drains.  Trials are queued
        scenario by scenario (cells share scenarios through the common
        seeds: all cells' trial ``k``, then trial ``k+1``), so a worker --
        or the one process of a sequential sweep -- builds each scenario it
        meets once and holds one at a time.  ``on_result`` -- when given --
        is invoked with each cell's :class:`RunResult` as soon as that cell
        completes; cells that share a scenario complete together, possibly
        out of grid order.  The returned :class:`SweepResult` is always in
        grid order.
        """
        return self.build_plan(**axes).execute(sink=on_result)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        plan = self.plan
        return (f"Simulation(scenario={plan.scenarios[0].name!r}, "
                f"level={plan.levels[0]!r}, mapper={plan.mappers[0].name!r}, "
                f"dropper={plan.droppers[0].name!r}, trials={plan.trials}, "
                f"base_seed={plan.base_seed})")
