"""Trial execution: one simulation run per (scenario, mapper, dropper, seed).

The runner is the bridge between the experiment harness and the simulator.
A :class:`TrialSpec` fully describes one trial with plain picklable data so
trials can optionally be fanned out across worker processes
(``ExperimentConfig.n_jobs > 1``); :func:`run_trial` materialises the
scenario, builds the system, runs it and returns the collected metrics.

:class:`TrialPool` is the only sweep executor: every
:meth:`~repro.api.plan.ExperimentPlan.execute` (and so ``Simulation.run``,
``Simulation.sweep``, the figures and the CLI) runs on one, in this
process when ``n_jobs == 1``.  It keeps worker processes warm across the
grid cells, feeds every trial through one shared work queue (whichever
worker is free takes the next trial) and streams per-cell results back as
they complete.  Trials are queued scenario by scenario, so each worker
builds the scenarios -- platform, PET tables, task streams -- itself and
holds one at a time; only specs and metrics cross the process boundary.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    PET tables) is built once per process and reused across all of them.
    """
    return (spec.scenario_name, spec.level, spec.scale, spec.gamma,
            spec.queue_capacity, spec.seed, spec.scenario_params)


def build_scenario_for_spec(spec: TrialSpec) -> Scenario:
    """Materialise the scenario a spec describes."""
    return build_scenario(spec.scenario_name, level=spec.level, scale=spec.scale,
                          gamma=spec.gamma, seed=spec.seed,
                          queue_capacity=spec.queue_capacity,
                          **spec.scenario_kwargs)


def trial_order(cells: Sequence[Sequence[TrialSpec]]
                ) -> List[Tuple[int, int]]:
    """Every ``(cell, trial)`` index pair, each scenario's trials adjacent.

    Scenarios come in the order their first trial appears in the grid,
    and within one scenario trials keep grid order.  Cells that share a
    scenario (a grid's mapper x dropper cells share every seed) therefore
    interleave trial by trial: all cells' trial ``k``, then trial ``k+1``.
    """
    groups: Dict[Tuple, List[Tuple[int, int]]] = {}
    for ci, cell in enumerate(cells):
        for ti, spec in enumerate(cell):
            groups.setdefault(scenario_key(spec), []).append((ci, ti))
    return [pair for group in groups.values() for pair in group]


class _ScenarioSlot:
    """The scenario of the trials at hand, for a taker of :func:`trial_order`.

    A taker that runs trials in that order (the inline loop, or one pool
    worker taking the shared queue's items in submission order) never
    returns to a scenario it has left, so holding one scenario builds each
    of them at most once per taker.
    """

    def __init__(self) -> None:
        self.key: Optional[Tuple] = None
        self.scenario: Optional[Scenario] = None

    def run(self, spec: TrialSpec) -> TrialMetrics:
        key = scenario_key(spec)
        if key != self.key:
            self.key = self.scenario = None  # free the old one first
            self.scenario = build_scenario_for_spec(spec)
            self.key = key
        return run_trial(spec, scenario=self.scenario)


#: The slot of a pool worker; the parent process never fills it.
_WORKER_SLOT = _ScenarioSlot()


def _run_in_worker(spec: TrialSpec) -> TrialMetrics:
    return _WORKER_SLOT.run(spec)


def run_trial(spec: TrialSpec,
              scenario: Optional[Scenario] = None) -> TrialMetrics:
    """Run one simulation trial end-to-end and collect its metrics.

    ``scenario`` may be supplied by a caller that already holds the
    materialised scenario (:class:`TrialPool` shares one across the grid
    cells that use it); otherwise it is built from the spec and dropped
    with the trial.  Scenarios are read-only templates
    (:meth:`Scenario.fresh_tasks` / :meth:`Scenario.build_machines` hand
    out per-run copies), so sharing one across trials cannot leak state
    between them.
    """
    if scenario is None:
        scenario = build_scenario_for_spec(spec)
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
    """Persistent worker pool with one shared work queue, reused across
    sweep cells.

    The workers stay warm for the pool's whole lifetime, so a grid sweep
    pays process start-up once, not once per cell.  Every trial is one
    task on the shared queue, so whichever worker is free takes the next
    trial and no core idles while trials remain.  The parent builds and
    ships no scenario: trials are queued in :func:`trial_order`, and each
    worker builds a scenario when it first takes one of its trials and
    holds only that one.  With ``n_jobs=1`` no process starts: the trials
    run in this process, in the same order, holding one scenario.

    Use as a context manager::

        with TrialPool(n_jobs=4) as pool:
            per_cell = pool.run_cells(cells, on_cell=print)
    """

    def __init__(self, n_jobs: int):
        if n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        self.n_jobs = int(n_jobs)
        self._pool = (ProcessPoolExecutor(max_workers=self.n_jobs)
                      if self.n_jobs > 1 else None)

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Sequence[TrialSpec]],
                  on_cell: Optional[Callable[[int, List[TrialMetrics]], None]]
                  = None) -> List[List[TrialMetrics]]:
        """Run every cell's trials and return per-cell metrics in cell order.

        All trials of all cells are queued up front in :func:`trial_order`,
        so workers never idle at cell boundaries.  As soon as the last
        trial of a cell completes, ``on_cell(cell_index, metrics)`` is
        invoked.  Cells that share a scenario therefore finish together,
        near the end of that scenario's last trials, and possibly out of
        grid order; the returned list is in grid order.
        """
        results: List[List[Optional[TrialMetrics]]] = [
            [None] * len(cell) for cell in cells]
        remaining = [len(cell) for cell in cells]

        def record(ci: int, ti: int, metrics: TrialMetrics) -> None:
            results[ci][ti] = metrics
            remaining[ci] -= 1
            if remaining[ci] == 0 and on_cell is not None:
                on_cell(ci, results[ci])

        order = trial_order(cells)
        if self._pool is None:
            slot = _ScenarioSlot()
            for ci, ti in order:
                record(ci, ti, slot.run(cells[ci][ti]))
            return results
        futures = {self._pool.submit(_run_in_worker, cells[ci][ti]): (ci, ti)
                   for ci, ti in order}
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    record(*futures[future], future.result())
        except BaseException:
            for future in pending:
                future.cancel()
            self._shutdown(wait=False, cancel_futures=True)
            raise
        return results

    # ------------------------------------------------------------------
    def _shutdown(self, wait: bool, cancel_futures: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._shutdown(wait=True)

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._shutdown(wait=False, cancel_futures=True)
