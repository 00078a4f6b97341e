"""System robustness measurement.

The paper measures robustness as the percentage of tasks completed on time
within a given time period.  Because every workload trial begins and ends
with an idle (non-oversubscribed) system, the first and last tasks of a trial
are excluded from the measurement (the paper excludes 100 on each side of its
20k-40k task workloads); the exclusion counts scale with the workload here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..records import Record
from ..sim.system import SimulationResult
from ..sim.task import Task, TaskStatus

__all__ = ["RobustnessReport", "measured_tasks", "robustness_report",
           "default_exclusion"]


def default_exclusion(num_tasks: int, paper_exclusion: int = 100,
                      paper_tasks: int = 20_000) -> int:
    """Warm-up/cool-down exclusion scaled from the paper's 100-of-20k rule."""
    if num_tasks <= 0:
        return 0
    scaled = int(round(num_tasks * paper_exclusion / paper_tasks))
    # Never exclude more than a quarter of the workload on each side.
    return min(max(scaled, 0), num_tasks // 4)


@dataclass(frozen=True)
class RobustnessReport(Record):
    """Robustness outcome of one simulation run.

    Attributes
    ----------
    total_tasks:
        Number of tasks submitted to the system.
    measured_tasks:
        Number of tasks retained after warm-up/cool-down exclusion.
    on_time:
        Measured tasks that completed strictly before their deadlines.
    completed_late / dropped_reactive / dropped_proactive / expired_batch:
        Breakdown of the measured tasks that failed.
    robustness_pct:
        ``100 * on_time / measured_tasks`` (the paper's robustness metric).
    """

    total_tasks: int
    measured_tasks: int
    on_time: int
    completed_late: int
    dropped_reactive: int
    dropped_proactive: int
    expired_batch: int

    @property
    def robustness_pct(self) -> float:
        """Percentage of measured tasks that completed on time."""
        if self.measured_tasks == 0:
            return 0.0
        return 100.0 * self.on_time / self.measured_tasks

    @property
    def failed(self) -> int:
        """Measured tasks that did not complete on time."""
        return self.measured_tasks - self.on_time

    @property
    def total_drops(self) -> int:
        """Measured tasks discarded without completing."""
        return self.dropped_reactive + self.dropped_proactive + self.expired_batch


def measured_tasks(result: SimulationResult, warmup: int, cooldown: int) -> List[Task]:
    """Tasks retained for measurement (arrival order, ends excluded)."""
    if warmup < 0 or cooldown < 0:
        raise ValueError("warmup/cooldown cannot be negative")
    ordered = result.tasks_in_arrival_order()
    if warmup + cooldown >= len(ordered):
        return []
    end = len(ordered) - cooldown if cooldown else len(ordered)
    return ordered[warmup:end]


def robustness_report(result: SimulationResult, warmup: int | None = None,
                      cooldown: int | None = None) -> RobustnessReport:
    """Compute the robustness report of a run.

    When ``warmup``/``cooldown`` are omitted they default to the scaled
    equivalent of the paper's 100-task exclusion on each side.
    """
    total = len(result.tasks)
    if warmup is None:
        warmup = default_exclusion(total)
    if cooldown is None:
        cooldown = default_exclusion(total)
    tasks = measured_tasks(result, warmup, cooldown)

    counts = {status: 0 for status in TaskStatus}
    for task in tasks:
        counts[task.status] += 1

    return RobustnessReport(
        total_tasks=total,
        measured_tasks=len(tasks),
        on_time=counts[TaskStatus.COMPLETED_ON_TIME],
        completed_late=counts[TaskStatus.COMPLETED_LATE],
        dropped_reactive=counts[TaskStatus.DROPPED_REACTIVE],
        dropped_proactive=counts[TaskStatus.DROPPED_PROACTIVE],
        expired_batch=counts[TaskStatus.DROPPED_EXPIRED_BATCH],
    )
