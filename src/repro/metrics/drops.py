"""Drop-type breakdowns.

Section V-F of the paper analyses what fraction of all dropped tasks are
dropped *reactively* (after missing their deadlines) versus *proactively*;
with the proactive mechanism enabled only a small minority (~7 %) of drops
remain reactive.  This module computes that breakdown from simulation
results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..records import Record
from ..sim.system import SimulationResult
from ..sim.task import TaskStatus

__all__ = ["DropBreakdown", "drop_breakdown"]


@dataclass(frozen=True)
class DropBreakdown(Record):
    """Counts of dropped tasks by drop kind over a whole run.

    Attributes
    ----------
    reactive:
        Tasks dropped from machine queues after missing their deadlines.
    proactive:
        Tasks dropped from machine queues by the proactive policy.
    expired_batch:
        Tasks that expired while still unmapped in the batch queue.
    """

    reactive: int
    proactive: int
    expired_batch: int

    @property
    def total(self) -> int:
        """All dropped tasks."""
        return self.reactive + self.proactive + self.expired_batch

    @property
    def queue_drops(self) -> int:
        """Drops that happened on machine queues (reactive + proactive)."""
        return self.reactive + self.proactive

    @property
    def reactive_share(self) -> float:
        """Fraction of machine-queue drops that were reactive (0 when none).

        This is the paper's §V-F statistic: with proactive dropping enabled
        the reactive share falls to a small minority.
        """
        if self.queue_drops == 0:
            return 0.0
        return self.reactive / self.queue_drops

    @property
    def proactive_share(self) -> float:
        """Fraction of machine-queue drops that were proactive."""
        if self.queue_drops == 0:
            return 0.0
        return self.proactive / self.queue_drops


def drop_breakdown(result: SimulationResult) -> DropBreakdown:
    """Count dropped tasks by kind over all tasks of a run (carried
    counts included)."""
    counts = result.tasks_by_status()
    return DropBreakdown(
        reactive=counts.get(TaskStatus.DROPPED_REACTIVE, 0),
        proactive=counts.get(TaskStatus.DROPPED_PROACTIVE, 0),
        expired_batch=counts.get(TaskStatus.DROPPED_EXPIRED_BATCH, 0),
    )
