"""Timeline fault injection: crashes, restarts, slowdowns, partitions.

The uncertainty models of :mod:`repro.sim.faults` perturb *individual*
execution times; nothing there can take capacity away.  This module adds
environment faults as first-class simulation events on the
:class:`~repro.sim.engine.SimulationEngine` timeline:

* :class:`MachineCrash` -- a machine fails, its queue is lost and its
  in-flight tasks are either requeued to the batch queue or lost outright
  (per the crash's restart policy);
* :class:`MachineRestart` -- the crashed machine returns after its repair
  delay and is mappable again;
* :class:`SlowdownStart` / :class:`SlowdownEnd` -- an interval-scoped
  slowdown window inflating every execution started on the affected
  machines while it is open (the per-interval generalisation of
  :class:`~repro.sim.faults.MachineStallModel`);
* :class:`PartitionStart` / :class:`PartitionEnd` -- a machine group is
  unreachable for *mapping* for a window (already-queued work keeps
  draining locally).

Fault *processes* generate those events as a seeded stream: given a
generator and the platform's machine ids, :meth:`FaultProcess.events`
yields onset events in nondecreasing time order.  The schedule is a pure
function of the fault seed -- every onset consumes a fixed number of RNG
draws, so changing one parameter never shifts an unrelated draw, and a
snapshot can fast-forward the stream by replaying ``consumed`` onsets
(exactly like the streaming traffic generators).

The :class:`FaultInjector` feeds a process into the engine one onset at a
time: exactly one future onset sits in the event heap; dispatching it
pulls the next.  End events (restart, slowdown end, partition end) are
scheduled by the system's fault handlers, not by the process.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..records import Record
from .engine import SimulationEngine
from .events import Event

__all__ = [
    "EXECUTION_SEED_OFFSET",
    "FAULT_SEED_OFFSET",
    "FaultEvent",
    "MachineCrash",
    "MachineRestart",
    "SlowdownStart",
    "SlowdownEnd",
    "PartitionStart",
    "PartitionEnd",
    "ChurnCounters",
    "FaultProcess",
    "NoFaults",
    "CrashRestartProcess",
    "SlowdownProcess",
    "PartitionProcess",
    "FaultInjector",
]

#: Added to the workload seed to derive the execution-time sampling stream.
#: Batch trials and the streaming service use the same offset, so a stream
#: and a trial sharing a seed draw execution times from the same state.
EXECUTION_SEED_OFFSET = 1_000_003

#: Added to the workload seed to derive the fault-process stream, so the
#: fault schedule is decoupled from both the workload generation stream
#: (``seed``) and the execution-sampling stream (``seed +
#: EXECUTION_SEED_OFFSET``) as well as the streaming traffic stream
#: (``seed + 7_919``).
FAULT_SEED_OFFSET = 104_729


# ----------------------------------------------------------------------
# Fault events
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent(Event):
    """Base class of all environment-fault events.

    Faults dispatch after completions and before arrivals at the same
    timestamp: a task finishing exactly when its machine crashes completed
    legitimately, while a task arriving exactly at a restart already sees
    the restored capacity.
    """

    priority: ClassVar[int] = 2


@dataclass(frozen=True)
class MachineCrash(FaultEvent):
    """A machine fails: capacity is lost and its queue is drained.

    Attributes
    ----------
    machine_id:
        The failing machine.
    repair_delay:
        Time units until the matching :class:`MachineRestart` fires.
    policy:
        ``"requeue"`` re-submits in-flight tasks whose deadlines are still
        in the future to the batch queue; ``"drop"`` loses all in-flight
        work.  Either way, tasks past their deadlines are lost.
    """

    machine_id: int = -1
    repair_delay: int = 1
    policy: str = "requeue"


@dataclass(frozen=True)
class MachineRestart(FaultEvent):
    """A crashed machine returns to service (empty queue, mappable again)."""

    machine_id: int = -1


@dataclass(frozen=True)
class SlowdownStart(FaultEvent):
    """An interval-scoped slowdown window opens.

    Executions *started* on an affected machine while the window is open
    take ``factor`` times as long; an empty ``machine_ids`` means the whole
    system slows down.  ``token`` pairs the window with its
    :class:`SlowdownEnd`.
    """

    token: int = -1
    machine_ids: Tuple[int, ...] = ()
    factor: float = 1.0
    duration: int = 1


@dataclass(frozen=True)
class SlowdownEnd(FaultEvent):
    """The slowdown window identified by ``token`` closes."""

    token: int = -1


@dataclass(frozen=True)
class PartitionStart(FaultEvent):
    """A machine group becomes unreachable for mapping for a window.

    Partitioned machines keep executing and draining their local queues --
    the partition separates them from the *batch queue*, not from their
    own work.  ``token`` pairs the window with its :class:`PartitionEnd`.
    """

    token: int = -1
    machine_ids: Tuple[int, ...] = ()
    duration: int = 1


@dataclass(frozen=True)
class PartitionEnd(FaultEvent):
    """The partition identified by ``token`` heals."""

    token: int = -1


# ----------------------------------------------------------------------
# Churn counters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChurnCounters(Record):
    """Fault-induced churn of one run.

    Attributes
    ----------
    crashes:
        Effective machine crashes (crashes of already-down machines are
        no-ops and not counted).
    requeued_tasks:
        In-flight tasks re-submitted to the batch queue by crashes.
    lost_tasks:
        In-flight tasks lost to crashes (recorded as reactive drops).
    partition_time:
        Total machine-time units spent unreachable for mapping, summed
        over all healed partitions.
    """

    crashes: int = 0
    requeued_tasks: int = 0
    lost_tasks: int = 0
    partition_time: int = 0


# ----------------------------------------------------------------------
# Fault processes
# ----------------------------------------------------------------------

class FaultProcess(abc.ABC):
    """A seeded stream of fault onset events.

    Implementations must yield onsets in nondecreasing time order and
    consume a *fixed* number of RNG draws per onset, so that the schedule
    is a pure function of the fault seed and a snapshot can fast-forward
    the stream by replaying a known number of onsets.
    """

    @abc.abstractmethod
    def events(self, rng: np.random.Generator,
               machine_ids: Sequence[int]) -> Iterator[FaultEvent]:
        """Yield onset events (crashes / window starts) forever.

        ``machine_ids`` is the platform's machine-id list in construction
        order; victim draws index into it.
        """

    def describe(self) -> str:
        """One-line human-readable description for experiment reports."""
        return type(self).__name__


class NoFaults(FaultProcess):
    """The empty fault stream (a fault-free environment)."""

    def events(self, rng: np.random.Generator,
               machine_ids: Sequence[int]) -> Iterator[FaultEvent]:
        """Yield nothing."""
        return iter(())


@dataclass
class CrashRestartProcess(FaultProcess):
    """Machine crash/restart churn: exponential failures, seeded victims.

    Attributes
    ----------
    mtbf:
        Mean time between crash onsets, system-wide (exponential gaps).
    repair_mean:
        Mean repair delay until the crashed machine restarts.
    policy:
        Restart policy applied to in-flight tasks (``"requeue"`` or
        ``"drop"``; see :class:`MachineCrash`).
    start_time:
        Time before which no crash fires.
    """

    mtbf: float = 2_000.0
    repair_mean: float = 400.0
    policy: str = "requeue"
    start_time: int = 0

    def __post_init__(self):
        if self.mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if self.repair_mean < 0:
            raise ValueError("repair_mean cannot be negative")
        if self.policy not in ("requeue", "drop"):
            raise ValueError(f"unknown crash policy {self.policy!r}; "
                             "expected 'requeue' or 'drop'")
        if self.start_time < 0:
            raise ValueError("start_time cannot be negative")

    def events(self, rng: np.random.Generator,
               machine_ids: Sequence[int]) -> Iterator[FaultEvent]:
        """Yield crash onsets; exactly three draws per onset."""
        ids = tuple(machine_ids)
        t = float(self.start_time)
        while True:
            gap = rng.exponential(self.mtbf)
            victim = ids[int(rng.integers(0, len(ids)))]
            repair = rng.exponential(self.repair_mean)
            t += max(gap, 1.0)
            yield MachineCrash(time=int(t), machine_id=victim,
                               repair_delay=max(int(repair), 1),
                               policy=self.policy)

    def describe(self) -> str:
        return (f"crash/restart churn (mtbf={self.mtbf}, "
                f"repair={self.repair_mean}, policy={self.policy})")


@dataclass
class SlowdownProcess(FaultProcess):
    """Transient slowdown windows (thermal throttling, noisy neighbours).

    Attributes
    ----------
    mean_interval:
        Mean time between window onsets (exponential gaps).
    duration_mean:
        Mean window duration.
    factor:
        Execution-time multiplier inside the window (> 1 slows down).
    scope:
        ``"machine"`` slows one seeded victim per window; ``"system"``
        slows every machine.
    start_time:
        Time before which no window opens.
    """

    mean_interval: float = 1_500.0
    duration_mean: float = 300.0
    factor: float = 2.0
    scope: str = "machine"
    start_time: int = 0

    def __post_init__(self):
        if self.mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if self.duration_mean <= 0:
            raise ValueError("duration_mean must be positive")
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.scope not in ("machine", "system"):
            raise ValueError(f"unknown slowdown scope {self.scope!r}; "
                             "expected 'machine' or 'system'")
        if self.start_time < 0:
            raise ValueError("start_time cannot be negative")

    def events(self, rng: np.random.Generator,
               machine_ids: Sequence[int]) -> Iterator[FaultEvent]:
        """Yield slowdown-window onsets; exactly three draws per onset."""
        ids = tuple(machine_ids)
        t = float(self.start_time)
        token = 0
        while True:
            gap = rng.exponential(self.mean_interval)
            # The victim draw happens even in system scope so both scopes
            # consume identical draw counts (fixed-draw-order invariant).
            victim = ids[int(rng.integers(0, len(ids)))]
            duration = rng.exponential(self.duration_mean)
            t += max(gap, 1.0)
            scope = (victim,) if self.scope == "machine" else ()
            yield SlowdownStart(time=int(t), token=token, machine_ids=scope,
                                factor=self.factor,
                                duration=max(int(duration), 1))
            token += 1

    def describe(self) -> str:
        return (f"slowdown windows (every~{self.mean_interval}, "
                f"x{self.factor}, scope={self.scope})")


@dataclass
class PartitionProcess(FaultProcess):
    """Network partitions: a seeded machine group unmappable for a window.

    Attributes
    ----------
    mean_interval:
        Mean time between partition onsets (exponential gaps).
    duration_mean:
        Mean partition duration.
    group_fraction:
        Fraction of the platform cut off per partition (at least one
        machine).
    start_time:
        Time before which no partition fires.
    """

    mean_interval: float = 3_000.0
    duration_mean: float = 500.0
    group_fraction: float = 0.5
    start_time: int = 0

    def __post_init__(self):
        if self.mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        if self.duration_mean <= 0:
            raise ValueError("duration_mean must be positive")
        if not 0.0 < self.group_fraction <= 1.0:
            raise ValueError("group_fraction must be within (0, 1]")
        if self.start_time < 0:
            raise ValueError("start_time cannot be negative")

    def events(self, rng: np.random.Generator,
               machine_ids: Sequence[int]) -> Iterator[FaultEvent]:
        """Yield partition onsets; exactly three draws per onset."""
        ids = tuple(machine_ids)
        size = min(len(ids), max(1, int(round(self.group_fraction * len(ids)))))
        t = float(self.start_time)
        token = 0
        while True:
            gap = rng.exponential(self.mean_interval)
            order = rng.permutation(len(ids))
            duration = rng.exponential(self.duration_mean)
            t += max(gap, 1.0)
            group = tuple(sorted(ids[int(i)] for i in order[:size]))
            yield PartitionStart(time=int(t), token=token, machine_ids=group,
                                 duration=max(int(duration), 1))
            token += 1

    def describe(self) -> str:
        return (f"network partitions (every~{self.mean_interval}, "
                f"{self.group_fraction:.0%} of machines)")


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------

class FaultInjector:
    """Feeds a fault process's onset stream into the simulation engine.

    Exactly one future onset lives in the event heap at any time: when the
    system dispatches an onset it calls :meth:`on_onset_dispatched`, which
    pulls and schedules the next one.  ``consumed`` counts onsets pulled
    from the stream; snapshots persist it and :meth:`fast_forward` replays
    the seeded stream to that position on restore (the restored heap
    already holds the pending onset, so restore never calls
    :meth:`start`).
    """

    def __init__(self, process: FaultProcess, rng: np.random.Generator,
                 machine_ids: Sequence[int]):
        self.process = process
        self._iter: Iterator[FaultEvent] = process.events(rng, tuple(machine_ids))
        #: Number of onsets pulled from the stream so far.
        self.consumed = 0
        #: True once the initial onset was scheduled (or restored).
        self.started = False

    def start(self, engine: SimulationEngine) -> None:
        """Schedule the first onset (idempotent)."""
        if self.started:
            return
        self.started = True
        self._push(engine)

    def on_onset_dispatched(self, engine: SimulationEngine) -> None:
        """Schedule the next onset after one dispatched."""
        self._push(engine)

    def _push(self, engine: SimulationEngine) -> None:
        event = next(self._iter, None)
        if event is None:
            return
        self.consumed += 1
        engine.schedule(event)

    def fast_forward(self, consumed: int) -> None:
        """Replay the stream until ``consumed`` onsets were pulled.

        Only valid on a freshly constructed injector (snapshot restore);
        marks the injector started so a later run does not double-schedule
        the initial onset (the restored heap already holds it).
        """
        if consumed < self.consumed:
            raise ValueError(
                f"cannot rewind fault stream from {self.consumed} to {consumed}")
        self.started = True
        while self.consumed < consumed:
            if next(self._iter, None) is None:
                raise RuntimeError(
                    "fault stream ended before reaching the snapshot position")
            self.consumed += 1
