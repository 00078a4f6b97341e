"""Trial execution: one simulation run per (scenario, mapper, dropper, seed).

The runner is the bridge between the experiment harness and the simulator.
A :class:`TrialSpec` fully describes one trial with plain picklable data so
trials can optionally be fanned out across worker processes
(``ExperimentConfig.n_jobs > 1``); :func:`run_trial` materialises the
scenario, builds the system, runs it and returns the collected metrics.

:class:`TrialPool` is the only parallel trial executor: every
:meth:`~repro.api.plan.ExperimentPlan.execute` with ``n_jobs > 1`` (and so
``Simulation.run``, ``Simulation.sweep``, the figures and the CLI) runs on
one.  It keeps worker processes warm across the grid cells, shards
the (deduplicated) scenarios -- platform, PET tables, task streams --
across its workers so each shard's initializer ships only the scenarios
its assigned trials need (instead of the whole table to every worker),
and streams per-cell results back as they complete.  Pickling keeps shared
PMF references shared (``PMF.__reduce__`` rebuilds values; pickle's memo
preserves sharing), so the identity keys of the simulator's caches work
the same on the far side of the process boundary.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple)

import numpy as np

from ..api.axes import build_system
from ..cost.pricing import PricingModel
from ..metrics.collector import TrialMetrics, collect_trial_metrics
from ..sim.fault_events import EXECUTION_SEED_OFFSET, FAULT_SEED_OFFSET
from ..sim.system import HCSystem
from ..workload.scenario import Scenario, build_scenario

__all__ = ["TrialSpec", "run_trial", "TrialPool"]


@dataclass(frozen=True)
class TrialSpec:
    """Fully picklable description of one simulation trial.

    Attributes
    ----------
    scenario_name / level / scale / gamma / queue_capacity / seed:
        Scenario-generation parameters (see
        :func:`repro.workload.scenario.build_scenario`).
    mapper_name:
        Mapping-heuristic registry name ("MM", "MSD", "PAM", ...).
    dropper_name:
        Dropping-policy registry name ("react", "heuristic", "optimal", ...).
    dropper_params:
        Keyword arguments of the dropping-policy factory (e.g. ``beta``,
        ``eta``), as a sorted tuple of pairs so the spec stays hashable.
    mapper_params:
        Keyword arguments of the mapping-heuristic factory (empty for all
        built-in heuristics).
    scenario_params:
        Extra keyword arguments forwarded to the scenario factory beyond
        the dedicated fields above (e.g. ``num_machines``, ``arrival``).
    batch_window:
        Mapper batch-queue window size.
    with_cost:
        Whether to attach a cost report to the trial metrics.
    incremental / scoring / small_plane_tasks:
        The engine switches of :class:`~repro.sim.system.SystemConfig`
        (naive recomputation, ``"loop"`` score plane, small-plane
        threshold).  They never change results, so no plan, stream spec
        or builder sets them: this spec is the one hook of the
        bit-identity referees and the ``repro bench`` crossover
        measurement, and it is never serialised.
    numerics / uncertainty_name / uncertainty_params / faults_name /
    fault_params / topology_name / topology_params:
        The optional axes, one row each of :data:`repro.api.axes.AXES`
        (fold-numerics profile, unmodelled-delay injector, timeline fault
        process, platform topology); each defaults to the value that
        disables it.
    """

    scenario_name: str
    level: str
    scale: float
    gamma: float
    queue_capacity: int
    seed: int
    mapper_name: str
    dropper_name: str
    dropper_params: Tuple[Tuple[str, float], ...] = ()
    batch_window: int = 32
    with_cost: bool = False
    mapper_params: Tuple[Tuple[str, object], ...] = ()
    scenario_params: Tuple[Tuple[str, object], ...] = ()
    incremental: bool = True
    scoring: str = "vector"
    numerics: str = "exact"
    small_plane_tasks: Optional[int] = None
    uncertainty_name: str = "none"
    uncertainty_params: Tuple[Tuple[str, object], ...] = ()
    faults_name: str = "none"
    fault_params: Tuple[Tuple[str, object], ...] = ()
    topology_name: str = "uniform"
    topology_params: Tuple[Tuple[str, object], ...] = ()

    @property
    def dropper_kwargs(self) -> Dict[str, float]:
        """Dropping-policy parameters as a dictionary."""
        return dict(self.dropper_params)

    @property
    def mapper_kwargs(self) -> Dict[str, object]:
        """Mapping-heuristic parameters as a dictionary."""
        return dict(self.mapper_params)

    @property
    def scenario_kwargs(self) -> Dict[str, object]:
        """Extra scenario-factory parameters as a dictionary."""
        return dict(self.scenario_params)

    @property
    def label(self) -> str:
        """Short configuration label, e.g. ``"PAM+Heuristic"``.

        Built-in dropping policies have fixed pretty names matching the
        paper's figures; custom registered policies fall back to their
        title-cased registry name.
        """
        pretty = {
            "react": "ReactDrop",
            "none": "ReactDrop",
            "heuristic": "Heuristic",
            "optimal": "Optimal",
            "threshold": "Threshold",
            "threshold-adaptive": "Threshold",
        }
        return f"{self.mapper_name}+{pretty.get(self.dropper_name, self.dropper_name.title())}"


def build_system_for_trial(scenario: Scenario, spec: TrialSpec,
                           rng: np.random.Generator,
                           fault_rng: Optional[np.random.Generator] = None
                           ) -> HCSystem:
    """Assemble a simulator instance for one trial of ``scenario``."""
    system = build_system(scenario, spec, rng, fault_rng=fault_rng)
    system.submit(scenario.fresh_tasks())
    return system


def scenario_key(spec: TrialSpec) -> Tuple:
    """Scenario-defining subset of a spec (mapper/dropper excluded).

    Grid cells of a sweep share seeds by design, so cells that differ only
    in mapper or dropper resolve to the *same* key -- the scenario (and its
    PET tables) is built and shipped once and reused across all of them.
    """
    return (spec.scenario_name, spec.level, spec.scale, spec.gamma,
            spec.queue_capacity, spec.seed, spec.scenario_params)


def build_scenario_for_spec(spec: TrialSpec) -> Scenario:
    """Materialise the scenario a spec describes."""
    return build_scenario(spec.scenario_name, level=spec.level, scale=spec.scale,
                          gamma=spec.gamma, seed=spec.seed,
                          queue_capacity=spec.queue_capacity,
                          **spec.scenario_kwargs)


#: Scenarios pre-shipped to this worker process by :class:`TrialPool`'s
#: initializer, keyed by :func:`scenario_key`.
_WORKER_SCENARIOS: Dict[Tuple, Scenario] = {}

#: True in processes initialised as pool workers; gates the lazy caching of
#: fallback-built scenarios (the parent process must not accumulate them --
#: its sweep paths manage scenario lifetime explicitly).
_IN_POOL_WORKER = False


def _pool_initializer(scenarios: Dict[Tuple, Scenario]) -> None:
    """Install the pre-built scenario table in a worker process.

    Runs once per worker; the scenarios (with their PET matrices) cross the
    process boundary exactly once here instead of once per trial.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    _WORKER_SCENARIOS.clear()
    _WORKER_SCENARIOS.update(scenarios)


def run_trial(spec: TrialSpec,
              scenario: Optional[Scenario] = None) -> TrialMetrics:
    """Run one simulation trial end-to-end and collect its metrics.

    ``scenario`` may be supplied by a caller that already holds the
    materialised scenario (sweep executors de-duplicate construction across
    grid cells); otherwise the worker-local table shipped by
    :class:`TrialPool` is consulted before falling back to building it from
    the spec.  Scenarios are read-only templates (:meth:`Scenario.fresh_tasks`
    / :meth:`Scenario.build_machines` hand out per-run copies), so sharing
    one across trials cannot leak state between them.
    """
    if scenario is None:
        key = scenario_key(spec)
        scenario = _WORKER_SCENARIOS.get(key)
        if scenario is None:
            scenario = build_scenario_for_spec(spec)
            if _IN_POOL_WORKER:
                # Spill-path trials (scenario unknown to the pool's shard
                # tables) build lazily on first use, once per worker.
                _WORKER_SCENARIOS[key] = scenario
    # The execution-time sampling stream is decoupled from the workload
    # generation stream so that two configurations sharing a seed see the
    # same arrivals and deadlines.  The fault stream is decoupled from
    # both so enabling faults never perturbs arrivals or PET samples.
    rng = np.random.default_rng(spec.seed + EXECUTION_SEED_OFFSET)
    fault_rng = np.random.default_rng(spec.seed + FAULT_SEED_OFFSET)
    system = build_system_for_trial(scenario, spec, rng, fault_rng=fault_rng)
    result = system.run()
    pricing = None
    if spec.with_cost:
        pricing = PricingModel.from_machine_types(scenario.platform.machine_types)
    return collect_trial_metrics(result, pricing=pricing)


class TrialPool:
    """Persistent, scenario-sharded worker pool reused across sweep cells.

    The workers stay warm for the pool's whole lifetime, so a grid sweep
    pays process start-up once, not once per cell.  The constructor
    de-duplicates the scenarios behind ``specs`` (cells sharing seeds share
    scenarios) and builds each distinct one once in the parent.

    Scenario shipping is *sharded*: instead of sending the whole table to
    every worker, the scenario groups (and the trials keyed to them) are
    partitioned across worker shards balanced by trial count, and each
    shard's initializer ships only the scenarios its workers will actually
    run.  A paper-scale grid with many distinct ``(level, seed)`` cells
    therefore ships each scenario to one shard instead of ``n_jobs``
    times.  Trials of one scenario group always run on their group's
    shard; trials whose scenario is unknown (not in ``specs``) are
    spread round-robin and their workers rebuild the scenario from the
    spec on first use.

    Use as a context manager::

        with TrialPool(n_jobs=4, specs=all_specs) as pool:
            per_cell = pool.run_cells(cells, on_cell=print)
    """

    def __init__(self, n_jobs: int, specs: Sequence[TrialSpec] = ()):
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.n_jobs = int(n_jobs)
        self.scenarios: Dict[Tuple, Scenario] = {}
        trials_per_key: Dict[Tuple, int] = {}
        for spec in specs:
            key = scenario_key(spec)
            if key not in self.scenarios:
                self.scenarios[key] = build_scenario_for_spec(spec)
            trials_per_key[key] = trials_per_key.get(key, 0) + 1

        # Partition the scenario groups across shards, heaviest group
        # first onto the least-loaded shard (longest-processing-time).
        n_shards = max(1, min(self.n_jobs, len(trials_per_key)))
        shard_keys: List[List[Tuple]] = [[] for _ in range(n_shards)]
        shard_load = [0] * n_shards
        for key in sorted(trials_per_key,
                          key=lambda k: trials_per_key[k], reverse=True):
            idx = min(range(n_shards), key=shard_load.__getitem__)
            shard_keys[idx].append(key)
            shard_load[idx] += trials_per_key[key]
        # Distribute the workers proportionally to shard load (>= 1 each),
        # so few-scenario/many-trial grids keep their intra-cell
        # parallelism.
        workers = [1] * n_shards
        for _ in range(self.n_jobs - n_shards):
            idx = max(range(n_shards),
                      key=lambda s: shard_load[s] / workers[s])
            workers[idx] += 1

        #: Per-shard scenario sub-tables actually shipped (tests assert the
        #: shipping stays bounded); their union is :attr:`scenarios`.
        self.shard_tables: Tuple[Dict[Tuple, Scenario], ...] = tuple(
            {key: self.scenarios[key] for key in keys} for keys in shard_keys)
        #: Worker processes per shard (sums to ``n_jobs``).
        self.shard_workers: Tuple[int, ...] = tuple(workers)
        self._shard_of = {key: idx for idx, keys in enumerate(shard_keys)
                          for key in keys}
        self._pools = [
            ProcessPoolExecutor(max_workers=count,
                                initializer=_pool_initializer,
                                initargs=(table,))
            for count, table in zip(self.shard_workers, self.shard_tables)]
        self._spill = 0

    def _pool_for(self, spec: TrialSpec) -> ProcessPoolExecutor:
        """Executor of the shard owning the spec's scenario group."""
        idx = self._shard_of.get(scenario_key(spec))
        if idx is None:
            idx = self._spill % len(self._pools)
            self._spill += 1
        return self._pools[idx]

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Sequence[TrialSpec]],
                  on_cell: Optional[Callable[[int, List[TrialMetrics]], None]]
                  = None) -> List[List[TrialMetrics]]:
        """Run every cell's trials and return per-cell metrics in cell order.

        All trials of all cells are submitted up front, so workers never
        idle at cell boundaries.  As soon as the last trial of a cell
        completes, ``on_cell(cell_index, metrics)`` is invoked (cells may
        finish out of grid order); the returned list is in grid order.
        """
        futures = {}
        for ci, cell in enumerate(cells):
            for ti, spec in enumerate(cell):
                futures[self._pool_for(spec).submit(run_trial, spec)] = (ci, ti)
        results: List[List[Optional[TrialMetrics]]] = [
            [None] * len(cell) for cell in cells]
        remaining = [len(cell) for cell in cells]
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    ci, ti = futures[future]
                    results[ci][ti] = future.result()
                    remaining[ci] -= 1
                    if remaining[ci] == 0 and on_cell is not None:
                        on_cell(ci, results[ci])
        except BaseException:
            for future in pending:
                future.cancel()
            self._shutdown(wait=False, cancel_futures=True)
            raise
        return results

    # ------------------------------------------------------------------
    def _shutdown(self, wait: bool, cancel_futures: bool = False) -> None:
        for pool in self._pools:
            pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def close(self) -> None:
        """Shut the worker pools down (idempotent)."""
        self._shutdown(wait=True)

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._shutdown(wait=False, cancel_futures=True)
