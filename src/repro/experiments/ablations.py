"""Ablation studies of the design choices called out in DESIGN.md.

Two ablations complement the paper's figures:

* **Optimal vs heuristic agreement (A1)** -- Section V-F claims there is no
  practically significant difference between the exhaustive-search dropping
  and the single-pass heuristic.  The ablation quantifies how often both
  policies make the same per-queue decision on randomly generated queues,
  and how much instantaneous robustness the heuristic gives up when they
  disagree.
* **PMF resolution (A2)** -- the PET construction discretises Gamma samples
  into a bounded number of impulses; this ablation measures how the number
  of histogram bins affects the end-to-end robustness measurement and the
  runtime of the probabilistic machinery.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.completion import QueueEntry
from ..core.dropping import (MachineQueueView, OptimalProactiveDropping,
                             ProactiveHeuristicDropping)
from ..core.pmf import PMF
from ..core.robustness import instantaneous_robustness_with_drops
from ..workload.pet_builder import GammaPETBuilder
from .config import ExperimentConfig

__all__ = ["DroppingAgreementReport", "ablation_optimal_vs_heuristic",
           "PMFResolutionPoint", "ablation_pmf_resolution",
           "random_queue_view"]


# ----------------------------------------------------------------------
# A1: optimal vs heuristic per-queue agreement
# ----------------------------------------------------------------------

def random_queue_view(rng: np.random.Generator, queue_length: int = 5,
                      now: int = 0, mean_range: Tuple[float, float] = (50.0, 200.0),
                      slack_range: Tuple[float, float] = (0.5, 3.0),
                      max_impulses: int = 16) -> MachineQueueView:
    """Generate a synthetic machine-queue view for policy comparisons.

    Execution PMFs are Gamma-sampled with means in ``mean_range``;
    deadlines give each task a slack between ``slack_range[0]`` and
    ``slack_range[1]`` times the mean backlog ahead of it, which produces a
    realistic mix of hopeless, marginal and comfortable tasks.
    """
    if queue_length < 1:
        raise ValueError("queue length must be at least 1")
    builder = GammaPETBuilder(samples_per_pair=200, max_impulses=max_impulses)
    entries: List[QueueEntry] = []
    backlog = 0.0
    for task_id in range(queue_length):
        mean = rng.uniform(*mean_range)
        exec_pmf = builder.sample_pair(mean, rng)
        backlog += mean
        slack = rng.uniform(*slack_range)
        deadline = int(now + slack * backlog) + 1
        entries.append(QueueEntry(task_id=task_id, exec_pmf=exec_pmf,
                                  deadline=deadline))
    return MachineQueueView(machine_id=0, now=now, base_pmf=PMF.delta(now),
                            entries=tuple(entries))


@dataclass(frozen=True)
class DroppingAgreementReport:
    """Outcome of the optimal-vs-heuristic agreement ablation.

    Attributes
    ----------
    num_queues:
        Number of synthetic queues evaluated.
    identical_decisions:
        Queues where both policies dropped exactly the same set of tasks.
    mean_robustness_gap:
        Mean difference between the instantaneous robustness achieved by the
        optimal subset and by the heuristic's choice (>= 0 by construction).
    max_robustness_gap:
        Worst-case robustness gap observed.
    mean_drops_optimal / mean_drops_heuristic:
        Average number of tasks dropped per queue by each policy.
    """

    num_queues: int
    identical_decisions: int
    mean_robustness_gap: float
    max_robustness_gap: float
    mean_drops_optimal: float
    mean_drops_heuristic: float

    @property
    def agreement_rate(self) -> float:
        """Fraction of queues where both policies made identical decisions."""
        if self.num_queues == 0:
            return 1.0
        return self.identical_decisions / self.num_queues


def ablation_optimal_vs_heuristic(num_queues: int = 100, queue_length: int = 5,
                                  beta: float = 1.0, eta: int = 2,
                                  seed: int = 7) -> DroppingAgreementReport:
    """Compare optimal and heuristic dropping decisions on synthetic queues."""
    rng = np.random.default_rng(seed)
    optimal = OptimalProactiveDropping()
    heuristic = ProactiveHeuristicDropping(beta=beta, eta=eta)

    identical = 0
    gaps: List[float] = []
    drops_optimal: List[int] = []
    drops_heuristic: List[int] = []
    for _ in range(num_queues):
        view = random_queue_view(rng, queue_length=queue_length)
        opt_decision = optimal.evaluate_queue(view)
        heu_decision = heuristic.evaluate_queue(view)
        drops_optimal.append(opt_decision.num_drops)
        drops_heuristic.append(heu_decision.num_drops)
        if tuple(opt_decision.drop_indices) == tuple(heu_decision.drop_indices):
            identical += 1
        opt_rob = instantaneous_robustness_with_drops(
            view.base_pmf, view.entries, opt_decision.drop_indices)
        heu_rob = instantaneous_robustness_with_drops(
            view.base_pmf, view.entries, heu_decision.drop_indices)
        gaps.append(max(opt_rob - heu_rob, 0.0))

    return DroppingAgreementReport(
        num_queues=num_queues,
        identical_decisions=identical,
        mean_robustness_gap=float(np.mean(gaps)) if gaps else 0.0,
        max_robustness_gap=float(np.max(gaps)) if gaps else 0.0,
        mean_drops_optimal=float(np.mean(drops_optimal)) if drops_optimal else 0.0,
        mean_drops_heuristic=float(np.mean(drops_heuristic)) if drops_heuristic else 0.0,
    )


# ----------------------------------------------------------------------
# A2: PMF resolution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PMFResolutionPoint:
    """Outcome of one PMF-resolution setting.

    Attributes
    ----------
    max_impulses:
        Histogram bin budget of the PET construction.
    robustness_pct:
        Mean robustness of the end-to-end run with that budget.
    runtime_seconds:
        Wall-clock time of the sweep point (workload + simulation).
    """

    max_impulses: int
    robustness_pct: float
    runtime_seconds: float


def ablation_pmf_resolution(config: ExperimentConfig,
                            impulse_budgets: Sequence[int] = (8, 16, 24, 48),
                            level: str = "30k",
                            mapper: str = "PAM") -> List[PMFResolutionPoint]:
    """End-to-end robustness and runtime versus PET histogram resolution.

    Because the PET resolution is baked into the scenario construction, the
    sweep monkey-patches nothing: it relies on the fact that
    :class:`~repro.workload.pet_builder.GammaPETBuilder` defaults are used by
    the scenario presets, so the ablation instead re-derives robustness with
    a *direct* scenario built at each budget.  The figure-level experiments
    always use the default budget; this ablation documents its adequacy.
    """
    from ..workload import scenario as scenario_module
    from ..workload.pet_builder import GammaPETBuilder as Builder
    points: List[PMFResolutionPoint] = []
    for budget in impulse_budgets:
        start = time.perf_counter()
        # Build a one-off configuration whose scenario uses the requested
        # impulse budget by temporarily adjusting the factory default.
        original = scenario_module.SpecWorkloadFactory
        try:
            values = []
            for k in range(config.trials):
                factory = original(queue_capacity=config.queue_capacity,
                                   pet_builder=Builder(max_impulses=int(budget)))
                rng = np.random.default_rng(config.base_seed + k)
                platform = factory.platform()
                pet = factory.build_pet(rng)
                spec = scenario_module.ScenarioSpec(
                    name="spec", level=level, scale=config.scale,
                    gamma=config.gamma, queue_capacity=config.queue_capacity,
                    seed=config.base_seed + k)
                tasks, rate = scenario_module._generate_tasks(pet, platform, spec, rng)
                scn = scenario_module.Scenario(
                    spec=spec, platform=platform, task_types=factory.task_types(),
                    pet=pet, tasks=tasks, arrival_rate=rate)
                from ..metrics.collector import collect_trial_metrics
                from .runner import TrialSpec, build_system_for_trial
                trial_spec = TrialSpec(
                    scenario_name="spec", level=level, scale=config.scale,
                    gamma=config.gamma, queue_capacity=config.queue_capacity,
                    seed=config.base_seed + k, mapper_name=mapper,
                    dropper_name="heuristic",
                    dropper_params=(("beta", 1.0), ("eta", 2)),
                    batch_window=config.batch_window)
                system = build_system_for_trial(
                    scn, trial_spec, np.random.default_rng(config.base_seed + k + 99))
                values.append(collect_trial_metrics(system.run()).robustness_pct)
            robustness = float(np.mean(values))
        finally:
            pass
        elapsed = time.perf_counter() - start
        points.append(PMFResolutionPoint(max_impulses=int(budget),
                                         robustness_pct=robustness,
                                         runtime_seconds=elapsed))
    return points
