"""Task model of the simulated HC system.

Tasks are independent, sequential, non-preemptible and carry an individual
hard deadline (Section III of the paper).  A task instance references a task
*type*; the execution-time distribution of a type on each machine type lives
in the PET matrix, not on the task itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..records import Record

__all__ = ["TaskStatus", "TaskType", "Task"]


class TaskStatus(enum.Enum):
    """Lifecycle states of a task inside the simulator."""

    #: Created but not yet arrived (its arrival event is still scheduled).
    CREATED = "created"
    #: Waiting in the batch queue for the mapper.
    IN_BATCH = "in_batch"
    #: Assigned to a machine queue, waiting behind other tasks.
    QUEUED = "queued"
    #: Currently executing on a machine.
    RUNNING = "running"
    #: Finished strictly before its deadline (a success).
    COMPLETED_ON_TIME = "completed_on_time"
    #: Finished, but at or after its deadline (a failure).
    COMPLETED_LATE = "completed_late"
    #: Dropped from a machine queue after its deadline passed.
    DROPPED_REACTIVE = "dropped_reactive"
    #: Dropped from a machine queue by the proactive dropping policy.
    DROPPED_PROACTIVE = "dropped_proactive"
    #: Expired while still waiting in the batch queue.
    DROPPED_EXPIRED_BATCH = "dropped_expired_batch"

    @property
    def is_terminal(self) -> bool:
        """True when the task will never change state again."""
        return self in _TERMINAL_STATES

    @property
    def is_drop(self) -> bool:
        """True when the task was discarded without completing."""
        return self in _DROP_STATES

    @property
    def is_success(self) -> bool:
        """True when the task completed before its deadline."""
        return self is TaskStatus.COMPLETED_ON_TIME


_TERMINAL_STATES = frozenset({
    TaskStatus.COMPLETED_ON_TIME,
    TaskStatus.COMPLETED_LATE,
    TaskStatus.DROPPED_REACTIVE,
    TaskStatus.DROPPED_PROACTIVE,
    TaskStatus.DROPPED_EXPIRED_BATCH,
})

_DROP_STATES = frozenset({
    TaskStatus.DROPPED_REACTIVE,
    TaskStatus.DROPPED_PROACTIVE,
    TaskStatus.DROPPED_EXPIRED_BATCH,
})


@dataclass(frozen=True)
class TaskType:
    """A category of tasks sharing an execution-time distribution.

    Attributes
    ----------
    id:
        Row index of the type in the PET matrix.
    name:
        Human-readable name (e.g. a SPECint benchmark or transcoding kind).
    input_bytes / output_bytes:
        Data moved to / from the executing machine per task instance.
        Both default to 0, so scenarios that never think about data
        movement are unchanged; the topology layer
        (:mod:`repro.platform.topology`) charges ``input_bytes +
        output_bytes`` against the target machine's link, and its
        ``task_bytes`` parameter provides a uniform fallback payload for
        types annotated 0/0.
    """

    id: int
    name: str
    input_bytes: int = 0
    output_bytes: int = 0

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("task type id must be non-negative")
        if not self.name:
            raise ValueError("task type needs a name")
        if self.input_bytes < 0 or self.output_bytes < 0:
            raise ValueError("task type data sizes cannot be negative")


@dataclass
class Task(Record):
    """One task instance flowing through the simulated system.

    Attributes
    ----------
    id:
        Unique identifier (also the submission order index).
    type_id:
        Task type (row of the PET matrix).
    arrival:
        Arrival time at the batch queue.
    deadline:
        Absolute hard deadline; completion strictly before it is a success.
    machine_id:
        Machine the task was assigned to (``None`` while in the batch queue).
    queued_time / start_time / finish_time / drop_time:
        Timestamps of the corresponding transitions (``None`` until they
        happen).
    status:
        Current lifecycle state (snapshots write it last).
    """

    id: int
    type_id: int
    arrival: int
    deadline: int
    machine_id: Optional[int] = None
    queued_time: Optional[int] = None
    start_time: Optional[int] = None
    finish_time: Optional[int] = None
    drop_time: Optional[int] = None
    status: TaskStatus = TaskStatus.CREATED

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("task id must be non-negative")
        if self.arrival < 0:
            raise ValueError("arrival time cannot be negative")
        if self.deadline <= self.arrival:
            raise ValueError("deadline must be after arrival")

    # ------------------------------------------------------------------
    @property
    def slack(self) -> int:
        """Time between arrival and deadline."""
        return self.deadline - self.arrival

    @property
    def completed(self) -> bool:
        """True when the task ran to completion (on time or late)."""
        return self.status in (TaskStatus.COMPLETED_ON_TIME, TaskStatus.COMPLETED_LATE)

    @property
    def succeeded(self) -> bool:
        """True when the task completed strictly before its deadline."""
        return self.status is TaskStatus.COMPLETED_ON_TIME

    @property
    def dropped(self) -> bool:
        """True when the task was discarded without completing."""
        return self.status.is_drop

    @property
    def response_time(self) -> Optional[int]:
        """Completion latency from arrival, if the task completed."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival

    # ------------------------------------------------------------------
    def mark_in_batch(self) -> None:
        """Transition CREATED → IN_BATCH upon arrival."""
        self._expect(TaskStatus.CREATED)
        self.status = TaskStatus.IN_BATCH

    def mark_queued(self, machine_id: int, now: int) -> None:
        """Transition IN_BATCH → QUEUED when the mapper assigns the task."""
        self._expect(TaskStatus.IN_BATCH)
        self.status = TaskStatus.QUEUED
        self.machine_id = machine_id
        self.queued_time = now

    def mark_running(self, now: int) -> None:
        """Transition QUEUED → RUNNING when the machine starts the task."""
        self._expect(TaskStatus.QUEUED)
        self.status = TaskStatus.RUNNING
        self.start_time = now

    def mark_completed(self, now: int) -> None:
        """Transition RUNNING → COMPLETED_{ON_TIME,LATE} upon completion."""
        self._expect(TaskStatus.RUNNING)
        self.finish_time = now
        if now < self.deadline:
            self.status = TaskStatus.COMPLETED_ON_TIME
        else:
            self.status = TaskStatus.COMPLETED_LATE

    def mark_requeued(self, now: int) -> None:
        """Transition QUEUED/RUNNING → IN_BATCH when the task's machine
        crashes and the restart policy re-submits surviving work.

        The partial execution is lost (tasks are sequential and
        non-preemptible, so a crashed run cannot be resumed); the task
        re-enters the batch queue with its original arrival and deadline.
        """
        if self.status not in (TaskStatus.QUEUED, TaskStatus.RUNNING):
            raise ValueError(
                f"task {self.id}: cannot requeue from {self.status}")
        self.status = TaskStatus.IN_BATCH
        self.machine_id = None
        self.queued_time = None
        self.start_time = None

    def mark_lost(self, now: int) -> None:
        """Transition QUEUED/RUNNING → DROPPED_REACTIVE on a machine crash.

        Crash losses are recorded as reactive drops -- the environment, not
        a dropping policy, discarded the task; the simulator additionally
        counts them in its churn counters.  This is the one sanctioned way
        a RUNNING task leaves without completing (the machine died; the
        no-preemption rule of :meth:`mark_dropped` still stands).
        """
        if self.status not in (TaskStatus.QUEUED, TaskStatus.RUNNING):
            raise ValueError(
                f"task {self.id}: cannot be lost from {self.status}")
        self.status = TaskStatus.DROPPED_REACTIVE
        self.drop_time = now

    def mark_dropped(self, status: TaskStatus, now: int) -> None:
        """Transition into one of the dropped states."""
        if not status.is_drop:
            raise ValueError(f"{status} is not a drop status")
        if self.status.is_terminal:
            raise ValueError(f"task {self.id} is already terminal ({self.status})")
        if self.status is TaskStatus.RUNNING:
            raise ValueError("running tasks are never dropped (no preemption)")
        self.status = status
        self.drop_time = now

    def _expect(self, expected: TaskStatus) -> None:
        if self.status is not expected:
            raise ValueError(
                f"task {self.id}: invalid transition from {self.status}, "
                f"expected {expected}")
