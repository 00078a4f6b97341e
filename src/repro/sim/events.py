"""Event types of the discrete-event simulator.

The batch-mode resource-allocation system of Fig. 1 is driven by exactly two
kinds of events: a task arriving at the batch queue and a task completing on
a machine.  Both of them trigger a *mapping event* in the system (reactive
dropping, proactive dropping, mapping, dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..records import Record

__all__ = ["Event", "TaskArrival", "TaskCompletion", "SimulationEnd"]


@dataclass(frozen=True, order=False)
class Event(Record):
    """Base class of all simulation events.

    Attributes
    ----------
    time:
        Simulation time (integer time units) at which the event fires.
    """

    time: int

    #: Priority used to break ties between events scheduled at the same time.
    #: Completions are handled before arrivals at the same timestamp so that
    #: the slot freed by a completion is visible to the arriving task.
    #: Fault events (:mod:`repro.sim.fault_events`) slot in between at
    #: priority 2: a task completing exactly when its machine crashes
    #: completed legitimately, and a task arriving exactly at a restart
    #: already sees the restored capacity.
    priority: ClassVar[int] = 0

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("event time cannot be negative")


@dataclass(frozen=True)
class TaskArrival(Event):
    """A task arrives at the batch queue."""

    task_id: int = -1
    priority: ClassVar[int] = 3


@dataclass(frozen=True)
class TaskCompletion(Event):
    """A running task finishes executing on a machine."""

    task_id: int = -1
    machine_id: int = -1
    priority: ClassVar[int] = 1


@dataclass(frozen=True)
class SimulationEnd(Event):
    """Sentinel event used to force the simulation loop to stop."""

    priority: ClassVar[int] = 4
