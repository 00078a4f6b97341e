"""Threshold-based probabilistic dropping (the PAM+Threshold baseline).

Prior pruning mechanisms (Gentry et al., IPDPS'19; Denninnart et al., HCW'19)
drop a pending task when its chance of completing before its deadline falls
below a *user-defined threshold*.  The paper uses such a mechanism as the
baseline "PAM+Threshold" in Figures 8 and 9 and notes that the threshold is a
fine-grained, load-dependent parameter that cannot be statically chosen.

Two variants are provided:

* a **static** threshold, the classic user-supplied value, and
* an **adaptive** threshold that is adjusted at every mapping event from the
  observed system pressure (the ratio of unmapped work to machine-queue
  capacity), approximating the per-event adjustment described for the
  baseline in Section V-F.
"""

from __future__ import annotations

from typing import List

from ..completion import QueueEntry, chance_of_success, completion_pmf
from ..pmf import PMF
from .base import DropDecision, DroppingPolicy, MachineQueueView

__all__ = ["ThresholdDropping", "AdaptiveThresholdDropping"]


class ThresholdDropping(DroppingPolicy):
    """Drop every pending task whose chance of success is below a threshold.

    Parameters
    ----------
    threshold:
        Minimum acceptable chance of success in ``[0, 1]``.  Tasks strictly
        below it are dropped.
    """

    name = "threshold"
    memoizable = True  # pure function of (base_pmf, entries)
    uses_pressure = False

    def __init__(self, threshold: float = 0.2):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")
        self.threshold = float(threshold)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(threshold={self.threshold})"

    # ------------------------------------------------------------------
    def current_threshold(self, view: MachineQueueView) -> float:
        """Threshold in effect for this mapping event (constant here)."""
        return self.threshold

    def evaluate_queue(self, view: MachineQueueView) -> DropDecision:
        """Walk the queue once, dropping tasks below the in-effect threshold.

        As for the heuristic policy, a confirmed drop takes effect
        immediately: the chance of success of later tasks is evaluated on the
        surviving chain (this is what makes threshold pruning improve the
        tasks behind a dropped one).
        """
        entries = list(view.entries)
        if not entries:
            return DropDecision(drop_indices=())
        threshold = self.current_threshold(view)

        dropped: List[int] = []
        before = 0.0
        after = 0.0
        prefix: PMF = view.base_pmf
        kept_prefix: PMF = view.base_pmf
        for idx, entry in enumerate(entries):
            # Bookkeeping of the no-drop robustness for reporting purposes.
            kept_prefix = completion_pmf(kept_prefix, entry.exec_pmf, entry.deadline)
            before += chance_of_success(kept_prefix, entry.deadline)

            candidate = completion_pmf(prefix, entry.exec_pmf, entry.deadline)
            p = chance_of_success(candidate, entry.deadline)
            if p < threshold:
                dropped.append(idx)
            else:
                prefix = candidate
                after += p
        return DropDecision(drop_indices=dropped, robustness_before=before,
                            robustness_after=after)


class AdaptiveThresholdDropping(ThresholdDropping):
    """Threshold dropping with a pressure-adjusted threshold.

    The effective threshold grows linearly from ``base_threshold`` (idle
    system) to ``max_threshold`` (fully oversubscribed) with the view's
    ``pressure`` signal, so the policy prunes more aggressively as the system
    becomes more oversubscribed -- the per-mapping-event adjustment that the
    baseline of the paper requires the user to configure.
    """

    name = "threshold-adaptive"
    memoizable = True  # pure function of (base_pmf, entries, pressure)
    uses_pressure = True

    def __init__(self, base_threshold: float = 0.15, max_threshold: float = 0.6):
        super().__init__(threshold=base_threshold)
        if not 0.0 <= base_threshold <= max_threshold <= 1.0:
            raise ValueError("need 0 <= base_threshold <= max_threshold <= 1")
        self.base_threshold = float(base_threshold)
        self.max_threshold = float(max_threshold)

    def __repr__(self) -> str:
        return (f"AdaptiveThresholdDropping(base={self.base_threshold}, "
                f"max={self.max_threshold})")

    def current_threshold(self, view: MachineQueueView) -> float:
        """Linear interpolation between the base and max thresholds."""
        pressure = min(max(view.pressure, 0.0), 1.0)
        return self.base_threshold + pressure * (self.max_threshold - self.base_threshold)
