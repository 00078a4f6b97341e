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

from ..completion import (FAST_FOLD_SUP_NORM_TOL, chance_of_success,
                          chance_upper_bound, completion_pmf)
from ..pmf import PMF
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

        The walk keeps one chain: ``chain[n]`` is the completion PMF of
        task ``n`` behind the tasks kept so far, so the kept side of Eq. 8
        is read off it.  The drop side is folded only when the closed-form
        bound of :func:`~repro.core.completion.chance_upper_bound` cannot
        rule the drop out: the chance of each task behind a dropped ``i``
        is at most ``P(prefix + E_n < d_n)``, so when the sum of those
        bounds plus :data:`~repro.core.completion.FAST_FOLD_SUP_NORM_TOL`
        is at most ``β`` times the kept score, ``i`` is kept without a
        fold.  Decisions and both robustness values are exactly those of
        re-folding every window (``docs/INVARIANTS.md``).

        The no-drop chain is read from ``view.chain`` when the caller
        passes one (the simulator's tail cache) and folded here otherwise;
        the two are the same folds, so the decision is bitwise the same.
        After drops the decision carries the survivors' chain, which the
        simulator's tail cache adopts.
        """
        entries = view.entries
        q = len(entries)
        if q == 0:
            return DropDecision(drop_indices=())

        # The no-drop chain; its chances sum to the robustness before.
        if view.chain is not None:
            chain: List[PMF] = list(view.chain)
        else:
            chain = []
            prev = view.base_pmf
            for entry in entries:
                prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
                chain.append(prev)
        probs = [chance_of_success(pmf, entry.deadline)
                 for pmf, entry in zip(chain, entries)]
        robustness_before = float(sum(probs))

        dropped: List[int] = []
        # ``prefix`` is the completion PMF of the last surviving task ahead of
        # the position currently being examined; ``chain[n]`` and
        # ``probs[n]`` hold behind the current drops for ``n < valid``.
        prefix = view.base_pmf
        valid = q
        beta = self.beta
        # The last task of a queue has an empty influence zone: dropping it
        # can never improve instantaneous robustness, so it is skipped
        # (Section IV-D).
        for i in range(q - 1):
            window_end = min(i + self.eta, q - 1)
            for n in range(valid, window_end + 1):
                entry = entries[n]
                chain[n] = completion_pmf(chain[n - 1], entry.exec_pmf,
                                          entry.deadline)
                probs[n] = chance_of_success(chain[n], entry.deadline)
            valid = max(valid, window_end + 1)

            keep_score = sum(probs[i:window_end + 1])  # Σ_{n=i}^{i+η} p_{nj}
            threshold = beta * keep_score
            bound = FAST_FOLD_SUP_NORM_TOL
            for n in range(i + 1, window_end + 1):
                entry = entries[n]
                bound += chance_upper_bound(prefix, entry.exec_pmf,
                                            entry.deadline)
                if bound > threshold:
                    break
            if bound <= threshold:
                prefix = chain[i]  # Eq. 8 cannot hold: keep i, no fold
                continue

            # Chances of success of tasks i+1..window_end when i is dropped.
            drop_chain: List[PMF] = []
            drop_probs: List[float] = []
            prev = prefix
            for n in range(i + 1, window_end + 1):
                entry = entries[n]
                prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
                drop_chain.append(prev)
                drop_probs.append(chance_of_success(prev, entry.deadline))
            drop_score = sum(drop_probs)  # Σ_{n=i+1}^{i+η} p^{(i)}_{nj}

            if drop_score > threshold:
                dropped.append(i)
                # prefix unchanged: task i vanishes from the chain, and the
                # drop branch becomes the chain behind it.
                probs[i] = 0.0
                chain[i + 1:window_end + 1] = drop_chain
                probs[i + 1:window_end + 1] = drop_probs
                valid = window_end + 1
            else:
                prefix = chain[i]

        # The last window reaches the queue's end, so every position of
        # ``chain`` now lies behind the drops.
        survivors = None
        if dropped:
            gone = set(dropped)
            survivors = [pmf for n, pmf in enumerate(chain) if n not in gone]
        return DropDecision(drop_indices=dropped,
                            robustness_before=robustness_before,
                            robustness_after=float(sum(probs)),
                            chain=survivors)
