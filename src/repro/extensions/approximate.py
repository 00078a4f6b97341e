"""Approximate-computing extension of the dropping mechanism (paper future work).

The paper's conclusion proposes extending the probabilistic analysis "to
consider approximately computing tasks, in addition to task dropping".  In a
video-transcoding system this means a task need not be all-or-nothing: a
transcoding job can run in a *degraded* mode (lower resolution or quality)
that takes a fraction of the full execution time, trading output quality for
a higher chance of completing before the deadline.

This module extends the single-pass heuristic of Fig. 4 with a third action:
for every pending task the planner chooses **keep**, **degrade**, or
**drop**, using the same effective-depth window (η) and robustness
improvement factor (β) as the dropping heuristic:

* dropping task *i* still requires the Eq. 8 condition
  (windowed robustness without *i* must exceed β times the windowed
  robustness with *i*);
* degrading task *i* is chosen when it yields a strictly better windowed
  robustness (after a configurable quality penalty) than keeping it at full
  quality, and dropping is not justified or is worse.

The planner is purely probabilistic (it operates on machine-queue views like
the dropping policies) so it can be studied without modifying the simulator;
its decisions are also exposed in the standard :class:`DropDecision`-like
form for integration experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.completion import QueueEntry, chance_of_success, completion_pmf
from ..core.dropping.base import MachineQueueView
from ..core.pmf import PMF

__all__ = ["TaskAction", "ApproximatePlan", "ApproximateComputingPlanner",
           "scale_execution_pmf"]


class TaskAction(enum.Enum):
    """Per-task decision of the approximate-computing planner."""

    KEEP = "keep"
    DEGRADE = "degrade"
    DROP = "drop"


def scale_execution_pmf(pmf: PMF, factor: float) -> PMF:
    """Execution-time PMF of the degraded variant of a task.

    Every support point of the full-quality PMF is scaled by ``factor`` and
    rounded (clipped below at one time unit), preserving the probability of
    each outcome.  ``factor=0.5`` models a degraded mode that takes half the
    time of the full-quality execution.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("degradation factor must be within (0, 1]")
    if pmf.is_empty:
        raise ValueError("cannot degrade an empty execution PMF")
    times, probs = pmf.impulses()
    scaled = np.maximum(np.rint(times * factor).astype(np.int64), 1)
    return PMF.from_impulses(scaled, probs)


@dataclass(frozen=True)
class ApproximatePlan:
    """Outcome of planning one machine queue.

    Attributes
    ----------
    actions:
        One :class:`TaskAction` per pending task, in queue order.
    robustness_before:
        Instantaneous robustness of the queue with every task kept at full
        quality.
    robustness_after:
        Instantaneous robustness of the queue after applying the plan
        (degraded tasks use their degraded execution PMFs; dropped tasks are
        removed).
    expected_quality_loss:
        Sum over degraded tasks of their chance of success times the quality
        penalty -- the expected amount of "output value" sacrificed.
    """

    actions: Sequence[TaskAction]
    robustness_before: float
    robustness_after: float
    expected_quality_loss: float

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def num_degraded(self) -> int:
        """Number of tasks planned to run in degraded mode."""
        return sum(1 for a in self.actions if a is TaskAction.DEGRADE)

    @property
    def num_dropped(self) -> int:
        """Number of tasks planned to be dropped."""
        return sum(1 for a in self.actions if a is TaskAction.DROP)

    def drop_indices(self) -> List[int]:
        """Queue positions planned to be dropped."""
        return [i for i, a in enumerate(self.actions) if a is TaskAction.DROP]

    def degrade_indices(self) -> List[int]:
        """Queue positions planned to run degraded."""
        return [i for i, a in enumerate(self.actions) if a is TaskAction.DEGRADE]


class ApproximateComputingPlanner:
    """Keep / degrade / drop planner built on the Fig. 4 heuristic.

    Parameters
    ----------
    beta:
        Robustness improvement factor required to *drop* a task (Eq. 8).
    eta:
        Effective depth: number of influence-zone tasks examined per decision.
    degradation_factor:
        Execution-time scale of the degraded mode (0.5 = half the time).
        Used when no per-task degraded PMFs are supplied.
    quality_penalty:
        Robustness-equivalent penalty subtracted from a degraded task's
        chance of success when comparing options: a degraded completion is
        worth ``1 - quality_penalty`` of a full-quality completion.  Setting
        it to one makes degrading pointless; zero treats degraded output as
        as good as full output.
    """

    def __init__(self, beta: float = 1.0, eta: int = 2,
                 degradation_factor: float = 0.5, quality_penalty: float = 0.25):
        if beta < 1.0:
            raise ValueError("beta must be >= 1")
        if eta < 1:
            raise ValueError("eta must be >= 1")
        if not 0.0 < degradation_factor <= 1.0:
            raise ValueError("degradation factor must be within (0, 1]")
        if not 0.0 <= quality_penalty <= 1.0:
            raise ValueError("quality penalty must be within [0, 1]")
        self.beta = float(beta)
        self.eta = int(eta)
        self.degradation_factor = float(degradation_factor)
        self.quality_penalty = float(quality_penalty)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ApproximateComputingPlanner(beta={self.beta}, eta={self.eta}, "
                f"factor={self.degradation_factor}, penalty={self.quality_penalty})")

    # ------------------------------------------------------------------
    def degraded_pmf_for(self, entry: QueueEntry,
                         degraded_pmfs: Optional[Mapping[int, PMF]]) -> PMF:
        """Degraded execution PMF of a queue entry."""
        if degraded_pmfs is not None and entry.task_id in degraded_pmfs:
            return degraded_pmfs[entry.task_id]
        return scale_execution_pmf(entry.exec_pmf, self.degradation_factor)

    def plan_queue(self, view: MachineQueueView,
                   degraded_pmfs: Optional[Mapping[int, PMF]] = None) -> ApproximatePlan:
        """Choose keep / degrade / drop for every pending task of a queue.

        The pass mirrors the dropping heuristic: decisions are made head to
        tail and take effect immediately for the evaluation of later tasks.
        The last task of the queue is never dropped (its influence zone is
        empty) but it may still be degraded when that raises its own chance
        of success.
        """
        entries = list(view.entries)
        q = len(entries)
        if q == 0:
            return ApproximatePlan(actions=(), robustness_before=0.0,
                                   robustness_after=0.0, expected_quality_loss=0.0)

        robustness_before = self._chain_robustness(view.base_pmf, entries, {})

        actions: List[TaskAction] = []
        effective_pmfs: Dict[int, PMF] = {}
        quality_loss = 0.0
        prefix = view.base_pmf
        for i in range(q):
            entry = entries[i]
            window_end = min(i + self.eta, q - 1)
            degraded = self.degraded_pmf_for(entry, degraded_pmfs)

            keep_score = self._window_score(prefix, entries, i, window_end,
                                            head_pmf=entry.exec_pmf,
                                            head_weight=1.0)
            degrade_score = self._window_score(prefix, entries, i, window_end,
                                               head_pmf=degraded,
                                               head_weight=1.0 - self.quality_penalty)
            drop_score = self._window_score(prefix, entries, i, window_end,
                                            head_pmf=None, head_weight=0.0)

            drop_allowed = i < q - 1 and drop_score > self.beta * keep_score
            if drop_allowed and drop_score >= degrade_score:
                actions.append(TaskAction.DROP)
                continue
            if degrade_score > keep_score:
                actions.append(TaskAction.DEGRADE)
                effective_pmfs[i] = degraded
                completion = completion_pmf(prefix, degraded, entry.deadline)
                quality_loss += (chance_of_success(completion, entry.deadline)
                                 * self.quality_penalty)
                prefix = completion
                continue
            actions.append(TaskAction.KEEP)
            prefix = completion_pmf(prefix, entry.exec_pmf, entry.deadline)

        surviving = [e for i, e in enumerate(entries)
                     if actions[i] is not TaskAction.DROP]
        surviving_pmfs = {}
        survivor_index = 0
        for i, action in enumerate(actions):
            if action is TaskAction.DROP:
                continue
            if action is TaskAction.DEGRADE:
                surviving_pmfs[survivor_index] = effective_pmfs[i]
            survivor_index += 1
        robustness_after = self._chain_robustness(view.base_pmf, surviving,
                                                  surviving_pmfs)
        return ApproximatePlan(actions=actions,
                               robustness_before=robustness_before,
                               robustness_after=robustness_after,
                               expected_quality_loss=quality_loss)

    # ------------------------------------------------------------------
    def _window_score(self, prefix: PMF, entries: List[QueueEntry], start: int,
                      end: int, head_pmf: Optional[PMF], head_weight: float) -> float:
        """Windowed instantaneous robustness of positions ``start..end``.

        ``head_pmf`` is the execution PMF used for the task at ``start``
        (``None`` means it is provisionally dropped); ``head_weight`` scales
        its contribution (the quality penalty of a degraded completion).
        Tasks behind the head always count at full weight.
        """
        total = 0.0
        prev = prefix
        for n in range(start, end + 1):
            entry = entries[n]
            if n == start:
                if head_pmf is None:
                    continue
                prev = completion_pmf(prev, head_pmf, entry.deadline)
                total += head_weight * chance_of_success(prev, entry.deadline)
            else:
                prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
                total += chance_of_success(prev, entry.deadline)
        return total

    def _chain_robustness(self, base: PMF, entries: Sequence[QueueEntry],
                          override_pmfs: Mapping[int, PMF]) -> float:
        """Instantaneous robustness of a queue with optional per-position PMFs."""
        prev = base
        total = 0.0
        for idx, entry in enumerate(entries):
            exec_pmf = override_pmfs.get(idx, entry.exec_pmf)
            prev = completion_pmf(prev, exec_pmf, entry.deadline)
            total += chance_of_success(prev, entry.deadline)
        return total
