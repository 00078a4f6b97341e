"""Autonomous proactive task-dropping heuristic (Section IV-E, Fig. 4).

The heuristic walks each machine queue head-to-tail exactly once.  For each
pending task ``i`` it compares the instantaneous robustness of the first
``η`` tasks of its influence zone (its *effective depth*) with and without
provisionally dropping ``i``.  Task ``i`` is dropped iff

    Σ_{n=i+1}^{i+η} p^{(i)}_{nj}  >  β · Σ_{n=i}^{i+η} p_{nj}          (Eq. 8)

where ``β >= 1`` is the *robustness improvement factor*.  ``β → 1`` drops on
any net improvement, ``β → ∞`` disables proactive dropping.

Unlike prior threshold-based pruning mechanisms, no user-supplied chance-of-
success threshold is involved: the decision is autonomous and derives solely
from the robustness comparison.
"""

from __future__ import annotations

from typing import List

from ..completion import QueueEntry, chance_of_success, completion_pmf
from ..pmf import PMF
from ..robustness import (instantaneous_robustness,
                          instantaneous_robustness_with_drops)
from .base import DropDecision, DroppingPolicy, MachineQueueView

__all__ = ["ProactiveHeuristicDropping", "DEFAULT_BETA", "DEFAULT_ETA"]

#: Value of the robustness improvement factor used in the paper's evaluation
#: after the sensitivity study of Fig. 6.
DEFAULT_BETA = 1.0

#: Effective depth used in the paper's evaluation after the study of Fig. 5.
DEFAULT_ETA = 2


class ProactiveHeuristicDropping(DroppingPolicy):
    """Single-pass proactive dropping heuristic of Fig. 4.

    Parameters
    ----------
    beta:
        Robustness improvement factor ``β >= 1``.  The dropping of a task
        must improve the windowed instantaneous robustness by at least this
        factor to be enacted.
    eta:
        Effective depth ``η >= 1``: number of influence-zone tasks whose
        robustness gain may compensate the loss of the dropped task.
    """

    name = "heuristic"
    memoizable = True  # pure function of (base_pmf, entries)
    uses_pressure = False

    def __init__(self, beta: float = DEFAULT_BETA, eta: int = DEFAULT_ETA):
        if not beta >= 1.0:  # also rejects NaN, which never drops
            raise ValueError("robustness improvement factor beta must be "
                             f">= 1, got {beta}")
        if isinstance(eta, bool) or not float(eta).is_integer() or eta < 1:
            raise ValueError("effective depth eta must be an integer >= 1, "
                             f"got {eta!r}")
        self.beta = float(beta)
        self.eta = int(eta)

    def __repr__(self) -> str:
        return f"ProactiveHeuristicDropping(beta={self.beta}, eta={self.eta})"

    # ------------------------------------------------------------------
    def evaluate_queue(self, view: MachineQueueView) -> DropDecision:
        """Single pass over the queue applying the Eq. 8 test to each task.

        Confirmed drops take effect immediately for the remainder of the
        pass: the completion chain of later tasks is computed over the
        surviving predecessors only, mirroring an actual removal from the
        machine queue.
        """
        entries = list(view.entries)
        q = len(entries)
        if q == 0:
            return DropDecision(drop_indices=())

        robustness_before = instantaneous_robustness(view.base_pmf, entries)

        dropped: List[int] = []
        # ``prefix`` is the completion PMF of the last surviving task ahead of
        # the position currently being examined.
        prefix = view.base_pmf
        for i in range(q):
            # The last task of a queue has an empty influence zone: dropping
            # it can never improve instantaneous robustness, so it is skipped
            # (Section IV-D).
            if i == q - 1:
                break
            window_end = min(i + self.eta, q - 1)

            # Chances of success of tasks i..window_end when i is kept.
            kept_probs = self._window_probs(prefix, entries, i, window_end,
                                            skip=None)
            # Chances of success of tasks i+1..window_end when i is dropped.
            drop_probs = self._window_probs(prefix, entries, i, window_end,
                                            skip=i)

            keep_score = sum(kept_probs)          # Σ_{n=i}^{i+η} p_{nj}
            drop_score = sum(drop_probs[1:])      # Σ_{n=i+1}^{i+η} p^{(i)}_{nj}

            if drop_score > self.beta * keep_score:
                dropped.append(i)
                # prefix unchanged: task i vanishes from the chain.
            else:
                prefix = completion_pmf(prefix, entries[i].exec_pmf,
                                        entries[i].deadline)

        robustness_after = instantaneous_robustness_with_drops(
            view.base_pmf, entries, dropped)
        return DropDecision(drop_indices=dropped,
                            robustness_before=robustness_before,
                            robustness_after=robustness_after)

    # ------------------------------------------------------------------
    def _window_probs(self, prefix: PMF, entries: List[QueueEntry], start: int,
                      end: int, skip: int | None) -> List[float]:
        """Chances of success of positions ``start..end`` given ``prefix``.

        ``skip`` marks a position that is provisionally dropped; its chance
        of success is recorded as ``0.0`` and it does not contribute to the
        completion chain of the tasks behind it.
        """
        probs: List[float] = []
        prev = prefix
        for n in range(start, end + 1):
            entry = entries[n]
            if skip is not None and n == skip:
                probs.append(0.0)
                continue
            prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
            probs.append(chance_of_success(prev, entry.deadline))
        return probs
