"""Instantaneous robustness of a machine queue (Eq. 3 and Eq. 7).

The *instantaneous robustness* of machine ``j`` is the sum of the chances of
success of its pending tasks.  The paper's hypothesis is that improving
instantaneous robustness at every mapping event improves the overall system
robustness (the fraction of tasks completed on time over a whole run).
"""

from __future__ import annotations

from typing import List, Sequence

from .completion import (QueueEntry, chance_of_success, queue_completion_pmfs,
                         queue_completion_with_drops)
from .pmf import PMF

__all__ = [
    "queue_success_probabilities",
    "queue_success_probabilities_with_drops",
    "instantaneous_robustness",
    "instantaneous_robustness_with_drops",
]


def queue_success_probabilities(base: PMF,
                                entries: Sequence[QueueEntry]) -> List[float]:
    """Chance of success ``p_{ij}`` of every pending task in queue order."""
    completions = queue_completion_pmfs(base, entries)
    return [chance_of_success(c, e.deadline) for c, e in zip(completions, entries)]


def queue_success_probabilities_with_drops(base: PMF, entries: Sequence[QueueEntry],
                                           dropped: Sequence[int]) -> List[float]:
    """Chances of success when a subset of positions is provisionally dropped.

    Dropped positions get a chance of success of ``0.0`` (a dropped task can
    no longer complete), matching the accounting of Eq. 7 where the dropped
    task is excluded from the sum.
    """
    completions = queue_completion_with_drops(base, entries, dropped)
    probs: List[float] = []
    for completion, entry in zip(completions, entries):
        if completion is None:
            probs.append(0.0)
        else:
            probs.append(chance_of_success(completion, entry.deadline))
    return probs


def instantaneous_robustness(base: PMF, entries: Sequence[QueueEntry]) -> float:
    """Instantaneous robustness ``R_j`` of a machine queue (Eq. 3)."""
    return float(sum(queue_success_probabilities(base, entries)))


def instantaneous_robustness_with_drops(base: PMF, entries: Sequence[QueueEntry],
                                        dropped: Sequence[int]) -> float:
    """Instantaneous robustness ``R_j^{(D)}`` after dropping positions ``D`` (Eq. 7)."""
    return float(sum(queue_success_probabilities_with_drops(base, entries, dropped)))
