"""Optimal proactive task dropping via exhaustive subset search (Section IV-D).

The optimal decision examines every subset of the droppable queue positions
(the last position is excluded because its influence zone is empty) and keeps
the subset whose removal maximises the instantaneous robustness of the queue.
With the paper's machine-queue capacity of six this is at most
``2^(q-1) = 32`` subsets per queue, which is feasible but considerably more
expensive than the single-pass heuristic.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

from ..completion import QueueEntry
from ..robustness import instantaneous_robustness, instantaneous_robustness_with_drops
from .base import DropDecision, DroppingPolicy, MachineQueueView

__all__ = ["OptimalProactiveDropping"]


class OptimalProactiveDropping(DroppingPolicy):
    """Exhaustive-search proactive dropping.

    Parameters
    ----------
    improvement_factor:
        Multiplicative improvement over the no-drop robustness required
        before a non-empty subset is preferred (the analogue of ``β`` for the
        optimal search; the paper's model uses ``β = 1``, i.e. any strict
        improvement).
    max_queue_length:
        Safety bound on the exhaustive search.  Queues longer than this raise
        ``ValueError`` instead of silently exploding (2^q growth).
    """

    name = "optimal"
    memoizable = True  # pure function of (base_pmf, entries)
    uses_pressure = False

    def __init__(self, improvement_factor: float = 1.0, max_queue_length: int = 16):
        if not improvement_factor >= 1.0:  # also rejects NaN, which never drops
            raise ValueError("improvement_factor must be >= 1, "
                             f"got {improvement_factor}")
        if max_queue_length < 1:
            raise ValueError("max_queue_length must be positive")
        self.improvement_factor = float(improvement_factor)
        self.max_queue_length = int(max_queue_length)

    def __repr__(self) -> str:
        return (f"OptimalProactiveDropping(improvement_factor="
                f"{self.improvement_factor})")

    # ------------------------------------------------------------------
    def evaluate_queue(self, view: MachineQueueView) -> DropDecision:
        """Search all droppable subsets and return the robustness-maximising one."""
        entries: Sequence[QueueEntry] = view.entries
        q = len(entries)
        if q == 0:
            return DropDecision(drop_indices=())
        if q > self.max_queue_length:
            raise ValueError(
                f"queue length {q} exceeds the exhaustive-search bound "
                f"{self.max_queue_length}; use the heuristic policy instead")

        baseline = instantaneous_robustness(view.base_pmf, entries)
        best_subset: Tuple[int, ...] = ()
        best_value = baseline

        droppable = list(range(q - 1))  # the last task is never worth dropping
        for size in range(1, len(droppable) + 1):
            for subset in combinations(droppable, size):
                value = instantaneous_robustness_with_drops(
                    view.base_pmf, entries, subset)
                if self._better(value, best_value, len(subset), len(best_subset),
                                baseline):
                    best_value = value
                    best_subset = subset

        return DropDecision(drop_indices=best_subset,
                            robustness_before=baseline,
                            robustness_after=best_value)

    # ------------------------------------------------------------------
    def _better(self, value: float, best_value: float, size: int, best_size: int,
                baseline: float) -> bool:
        """Strictly-better comparison with a minimal-drop-count tie-break."""
        # A non-empty subset must strictly beat the no-drop baseline scaled by
        # the improvement factor to be considered at all.
        if size > 0 and value <= baseline * self.improvement_factor + 1e-12:
            return False
        if value > best_value + 1e-12:
            return True
        if abs(value - best_value) <= 1e-12 and size < best_size:
            return True
        return False


def enumerate_droppable_subsets(queue_length: int) -> List[Tuple[int, ...]]:
    """All subsets of droppable positions for a queue of ``queue_length``.

    Exposed for tests and for the complexity analysis of Section IV-F: the
    number of returned subsets is ``2^(q-1)`` (the last position excluded).
    """
    if queue_length < 0:
        raise ValueError("queue length cannot be negative")
    droppable = list(range(max(queue_length - 1, 0)))
    subsets: List[Tuple[int, ...]] = [()]
    for size in range(1, len(droppable) + 1):
        subsets.extend(combinations(droppable, size))
    return subsets


__all__.append("enumerate_droppable_subsets")
