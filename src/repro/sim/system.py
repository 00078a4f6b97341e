"""The batch-mode heterogeneous-computing system simulator.

This module wires together every substrate of the reproduction into the
resource-allocation loop of Fig. 1:

1. arriving tasks are batched in a single queue;
2. every arrival or completion triggers a *mapping event*;
3. a mapping event first drops expired tasks reactively, then lets the
   configured proactive dropping policy prune machine queues, then lets the
   mapping heuristic fill free machine-queue slots from the batch queue, and
   finally dispatches tasks on idle machines;
4. machine queues are bounded, FCFS, non-preemptive; mapped tasks are never
   remapped.

Actual execution times are sampled from the same PET matrix the scheduler
uses, matching the paper's simulation methodology.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.completion import (NUMERICS_PROFILES, ChainFolder, QueueEntry,
                               active_folder, completion_pmf)
from ..core.dropping import (DropDecision, DroppingPolicy, MachineQueueView,
                             NoProactiveDropping)
from ..core.pet import PETMatrix
from ..core.pmf import PMF
from ..mapping.base import (SCORING_BACKENDS, Assignment, MachineState,
                            MappingContext, MappingHeuristic, TaskView)
from ..platform.topology import BoundTopology, EffectiveExecution, Topology
from .batch_queue import BatchQueue
from .engine import SimulationEngine
from .events import Event, TaskArrival, TaskCompletion
from .fault_events import (FAULT_SEED_OFFSET, FaultEvent, FaultInjector,
                           FaultProcess, MachineCrash, MachineRestart,
                           PartitionEnd, PartitionStart, SlowdownEnd,
                           SlowdownStart)
from .machine import Machine, MachineType
from .perf import PerfStats
from .task import Task, TaskStatus, TaskType
from .trace import NullTrace, Trace, TraceRecord

__all__ = ["SystemConfig", "SimulationResult", "HCSystem"]


@dataclass(frozen=True)
class SystemConfig:
    """Tunable parameters of the simulated resource-allocation system.

    Attributes
    ----------
    queue_capacity:
        Machine-queue capacity including the running task (paper: 6).
    batch_window:
        Maximum number of batch-queue tasks the mapper examines per mapping
        event.
    drop_expired_batch:
        When True, tasks whose deadlines pass while they are still unmapped
        are discarded from the batch queue at the next mapping event.
    max_steps:
        Safety bound forwarded to the event engine.
    incremental:
        Enable the incremental completion-PMF caches of the simulation core
        (per-machine tail chains, base-PMF memoisation and proactive-drop
        decision reuse).  Reuse is gated on bitwise-identical inputs, so
        results are exactly those of the naive recomputation; disabling it
        exists for equivalence testing and benchmarking (only ``TrialSpec``
        sets it, like ``scoring``), not as a semantic switch.
    scoring:
        Score-plane backend of the declarative two-phase mapping
        heuristics (:mod:`repro.mapping.kernel`): ``"vector"`` (default)
        evaluates the whole (task x machine) plane per round through the
        batched NumPy engine, ``"loop"`` keeps the per-pair reference
        loop.  Both produce identical assignments (the vector backend's
        tie-break columns reproduce the loop's pick order bit-for-bit), so
        like ``incremental`` this is a performance switch, not a semantic
        one.
    numerics:
        Arithmetic profile of the mapping scores.  ``"exact"`` (default)
        keeps every score bit-identical to the naive reference.  ``"fast"``
        serves chance-of-success scores from a closed-form dot product and
        expected-completion scores from closed-form moment algebra
        (:class:`repro.core.completion.ChainFolder`), trading float
        ordering for speed within the documented sup-norm tolerance
        (:data:`repro.core.completion.FAST_FOLD_SUP_NORM_TOL`); committed
        completion PMFs stay exact.  Requires ``incremental=True`` (the
        fast backends live on the run's fold kernel).
    small_plane_tasks:
        Override of the vector backend's small-plane dispatch threshold
        (``None`` keeps the measured platform default,
        :data:`repro.mapping.kernel.SMALL_PLANE_TASKS`; measure your own
        crossover with ``repro bench``).
    """

    queue_capacity: int = 6
    batch_window: int = 32
    drop_expired_batch: bool = True
    max_steps: int = 50_000_000
    incremental: bool = True
    scoring: str = "vector"
    numerics: str = "exact"
    small_plane_tasks: Optional[int] = None

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.batch_window < 1:
            raise ValueError("batch window must be at least 1")
        if self.scoring not in SCORING_BACKENDS:
            raise ValueError(f"unknown scoring backend {self.scoring!r}; "
                             f"expected one of {SCORING_BACKENDS}")
        if self.numerics not in NUMERICS_PROFILES:
            raise ValueError(f"unknown numerics profile {self.numerics!r}; "
                             f"expected one of {NUMERICS_PROFILES}")
        if self.numerics == "fast" and not self.incremental:
            raise ValueError("numerics='fast' requires incremental=True "
                             "(the fast backends live on the run's fold "
                             "kernel)")
        if (self.small_plane_tasks is not None
                and self.small_plane_tasks < 0):
            raise ValueError("small_plane_tasks cannot be negative")


@dataclass
class SimulationResult:
    """Raw outcome of one simulation run.

    The metrics layer (``repro.metrics``) consumes this structure to compute
    robustness, drop breakdowns and costs; it intentionally exposes the full
    per-task record rather than pre-aggregated numbers.
    """

    tasks: Dict[int, Task]
    machines: List[Machine]
    machine_types: List[MachineType]
    task_types: List[TaskType]
    makespan: int
    num_mapping_events: int
    num_proactive_drops: int
    num_reactive_queue_drops: int
    num_batch_expired_drops: int
    num_dispatched_events: int
    #: Fault-induced churn of the run (all zero without a fault process;
    #: crash losses are *also* counted in ``num_reactive_queue_drops`` and
    #: carry ``DROPPED_REACTIVE`` status, so the drop breakdown stays
    #: consistent with the status histogram).
    num_crashes: int = 0
    num_requeued_tasks: int = 0
    num_crash_lost: int = 0
    partition_time: int = 0
    #: True when the run had a fault process attached (even one that never
    #: fired); the metrics layer only attaches churn counters then, keeping
    #: fault-free trial metrics byte-identical to older spools.
    faults_active: bool = False
    #: Data-movement totals (all zero on a trivial or absent topology).
    #: ``transfer_time`` is raw link occupancy; ``transfer_wait`` is
    #: contention-induced queueing on shared link groups.
    num_transfers: int = 0
    transfer_time: int = 0
    transfer_wait: int = 0
    #: True when the run had an effective (non-trivial) topology: some
    #: (task type, machine) pair paid a transfer cost.  The metrics layer
    #: only attaches transfer counters then, keeping topology-free trial
    #: metrics byte-identical to older spools.
    topology_active: bool = False
    #: Hot-path work counters of the run (``None`` only for hand-built
    #: results in tests; :meth:`HCSystem.result` always attaches them).
    #: Excluded from equality so identical outcomes compare equal even
    #: when cache behaviour or wall time differed.
    perf: Optional[PerfStats] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    def tasks_by_status(self) -> Dict[TaskStatus, int]:
        """Histogram of final task statuses."""
        counts: Dict[TaskStatus, int] = {}
        for task in self.tasks.values():
            counts[task.status] = counts.get(task.status, 0) + 1
        return counts

    def tasks_in_arrival_order(self) -> List[Task]:
        """All tasks sorted by arrival time (ties by id)."""
        return sorted(self.tasks.values(), key=lambda t: (t.arrival, t.id))

    @property
    def total_drops(self) -> int:
        """Total number of dropped tasks (all drop kinds)."""
        return (self.num_proactive_drops + self.num_reactive_queue_drops
                + self.num_batch_expired_drops)



class HCSystem:
    """Simulated heterogeneous computing system (Fig. 1).

    Parameters
    ----------
    machine_types / machines / task_types / pet:
        Static description of the platform and its probabilistic execution
        time model.  Machine ``type_id``s must index ``machine_types`` and
        PET columns; task ``type_id``s must index ``task_types`` and PET
        rows.
    mapper:
        Batch-mode mapping heuristic invoked at every mapping event.
    dropper:
        Proactive dropping policy (defaults to reactive-only behaviour).
    config:
        System parameters (queue capacity, batch window, ...).
    rng:
        Source of randomness for sampling actual execution times.
    trace:
        Optional trace sink.
    """

    def __init__(self, machine_types: Sequence[MachineType],
                 machines: Sequence[Machine],
                 task_types: Sequence[TaskType],
                 pet: PETMatrix,
                 mapper: MappingHeuristic,
                 dropper: Optional[DroppingPolicy] = None,
                 config: Optional[SystemConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 trace: Optional[Trace] = None,
                 uncertainty: Optional["UncertaintyModel"] = None,
                 faults: Optional[FaultProcess] = None,
                 fault_rng: Optional[np.random.Generator] = None,
                 topology: Optional[Topology] = None):
        self.machine_types = list(machine_types)
        self.machines = list(machines)
        self.task_types = list(task_types)
        self.pet = pet
        self.mapper = mapper
        self.dropper: DroppingPolicy = dropper if dropper is not None else NoProactiveDropping()
        self.config = config or SystemConfig()
        # Seeded fallback: a bare HCSystem() run is reproducible by default.
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.trace = trace if trace is not None else NullTrace()
        #: Optional unmodelled-uncertainty injector (network latency, machine
        #: stalls); the scheduler's PET-based view never sees its effect.
        self.uncertainty = uncertainty

        self._validate_platform()

        #: Optional topology spec (data movement as a first-class cost).  A
        #: trivial binding -- ``uniform``, or any topology whose every
        #: (task type, machine) pair moves zero bytes -- is treated exactly
        #: like no topology at all: no effective-PMF table, no counters, no
        #: snapshot state, so such runs stay byte-identical to pre-topology
        #: behaviour.
        self.topology = topology
        self._bound_topology: Optional[BoundTopology] = None
        self._exec_view: Optional[EffectiveExecution] = None
        if topology is not None:
            bound = topology.bind(self.machines, self.task_types, self.pet)
            if not bound.trivial:
                self._bound_topology = bound
                self._exec_view = EffectiveExecution(
                    bound, self.machines, self.task_types, self.pet)
        #: Busy-until clock per shared link group (uplink contention).
        #: Advanced only at dispatch, in fixed machine-id order, with no
        #: RNG: the transfer schedule is a deterministic function of the
        #: dispatch sequence (see docs/INVARIANTS.md).
        self._link_busy: Dict[str, int] = {}
        # Data-movement counters.
        self.num_transfers = 0
        self.transfer_time_total = 0
        self.transfer_wait_total = 0

        #: Optional timeline fault process (crash/restart churn, slowdown
        #: windows, partitions); its onset stream is driven by a dedicated
        #: seeded generator so the fault schedule is independent of both the
        #: workload and the execution-sampling streams.
        self.faults = faults
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None:
            injector_rng = (fault_rng if fault_rng is not None
                            else np.random.default_rng(FAULT_SEED_OFFSET))
            self.fault_injector = FaultInjector(
                faults, injector_rng, [m.id for m in self.machines])
        # Fault state.  ``_down`` is membership-only (never iterated), the
        # window dicts are insertion-ordered, and cancelled completions are
        # counted per (task, machine, time) so a requeued task re-finishing
        # at a coincident timestamp still completes exactly once.
        self._down: set = set()
        self._slowdowns: Dict[int, Tuple[Tuple[int, ...], float]] = {}
        self._partitions: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._cancelled_completions: Dict[Tuple[int, int, int], int] = {}
        #: Tasks submitted but not yet in a terminal state; a fault-active
        #: batch run stops when this reaches zero (the onset stream alone
        #: would keep the event heap populated forever).
        self._open_tasks = 0
        # Churn counters.
        self.num_crashes = 0
        self.num_requeued_tasks = 0
        self.num_crash_lost = 0
        self.partition_time = 0

        self.batch_queue = BatchQueue()
        self.tasks: Dict[int, Task] = {}
        self._machine_by_id: Dict[int, Machine] = {m.id: m for m in self.machines}
        self._total_queue_capacity = sum(m.queue_capacity for m in self.machines)
        self._sampled_exec: Dict[int, int] = {}

        self.engine = SimulationEngine(max_steps=self.config.max_steps)

        # Counters.
        self.num_mapping_events = 0
        self.num_proactive_drops = 0
        self.num_reactive_queue_drops = 0
        self.num_batch_expired_drops = 0
        self.perf = PerfStats()

        # Incremental completion-PMF caches, all keyed by machine id and all
        # gated on *bitwise-identical* inputs so reuse can never change a
        # result (see _tail_pmf / _machine_base_pmf / _proactive_drop).
        #: running task id -> its execution PMF shifted to its start time,
        #: with that PMF's impulse times.
        self._shifted_exec_cache: Dict[int, Tuple[int, PMF, List[int]]] = {}
        #: (running task id, impulses before now) -> conditioned base PMF.
        self._base_cache: Dict[int, Tuple[int, Tuple[int, Optional[int]],
                                          PMF]] = {}
        #: (base PMF, pending ids) -> chain of fold results along the queue.
        self._tail_cache: Dict[int, Tuple[PMF, Tuple[int, ...], List[PMF]]] = {}
        #: (base PMF, pending ids, pressure) -> memoised drop decision.
        self._drop_cache: Dict[int, Tuple[PMF, Tuple[int, ...], float,
                                          DropDecision]] = {}
        #: Batched Eq. 1 fold kernel of this run (identity-keyed memos that
        #: live for one mapping event).  Installed process-wide around the
        #: event loop so dropping policies share it; ``None`` on the naive
        #: path, which also *shields* the run from any outer folder.
        self._folder: Optional[ChainFolder] = (
            ChainFolder(numerics=self.config.numerics)
            if self.config.incremental else None)
        #: The folder's ``memo_hits`` already added to ``perf``.
        self._memo_hits_seen = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _validate_platform(self) -> None:
        if not self.machines:
            raise ValueError("the system needs at least one machine")
        if len({m.id for m in self.machines}) != len(self.machines):
            raise ValueError("machine ids must be unique")
        n_machine_types = len(self.machine_types)
        n_task_types = len(self.task_types)
        if self.pet.num_machine_types != n_machine_types:
            raise ValueError("PET matrix machine-type count does not match the platform")
        if self.pet.num_task_types != n_task_types:
            raise ValueError("PET matrix task-type count does not match the platform")
        for idx, mtype in enumerate(self.machine_types):
            if mtype.id != idx:
                raise ValueError("machine type ids must be 0..n-1 in order")
        for idx, ttype in enumerate(self.task_types):
            if ttype.id != idx:
                raise ValueError("task type ids must be 0..n-1 in order")
        for machine in self.machines:
            if not 0 <= machine.type_id < n_machine_types:
                raise ValueError(f"machine {machine.id} references unknown type "
                                 f"{machine.type_id}")
            if machine.queue_capacity != self.config.queue_capacity:
                # Machines are normally constructed by the workload layer with
                # the same capacity; enforce consistency to avoid surprises.
                machine.queue_capacity = self.config.queue_capacity

    def submit(self, tasks: Iterable[Task]) -> None:
        """Register tasks and schedule their arrival events."""
        for task in tasks:
            if task.id in self.tasks:
                raise ValueError(f"duplicate task id {task.id}")
            if not 0 <= task.type_id < len(self.task_types):
                raise ValueError(f"task {task.id} references unknown type {task.type_id}")
            if task.status is not TaskStatus.CREATED:
                raise ValueError(f"task {task.id} was already submitted")
            self.tasks[task.id] = task
            self._open_tasks += 1
            self.engine.schedule(TaskArrival(time=task.arrival, task_id=task.id))

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def handle(self, event: Event, engine: SimulationEngine) -> None:
        """Dispatch one simulation event (EventHandler protocol)."""
        if isinstance(event, TaskArrival):
            self._on_arrival(event)
        elif isinstance(event, TaskCompletion):
            self._on_completion(event)
        elif isinstance(event, FaultEvent):
            self._on_fault(event)
        else:  # pragma: no cover - no other event kinds are scheduled
            raise TypeError(f"unexpected event {event!r}")

    def _on_arrival(self, event: TaskArrival) -> None:
        task = self.tasks[event.task_id]
        task.mark_in_batch()
        self.batch_queue.push(task.id, task.deadline)
        self._trace(event.time, "arrival", task_id=task.id)
        self._mapping_event(event.time)

    def _on_completion(self, event: TaskCompletion) -> None:
        if self._cancelled_completions:
            # A crash cancelled this in-heap completion; swallow it.
            key = (event.task_id, event.machine_id, event.time)
            count = self._cancelled_completions.get(key, 0)
            if count:
                if count == 1:
                    del self._cancelled_completions[key]
                else:
                    self._cancelled_completions[key] = count - 1
                return
        task = self.tasks[event.task_id]
        machine = self._machine_by_id[event.machine_id]
        busy = event.time - (task.start_time if task.start_time is not None else event.time)
        machine.finish_running(task.id, busy)
        task.mark_completed(event.time)
        self._task_closed()
        self._trace(event.time, "completed", task_id=task.id, machine_id=machine.id,
                    detail=f"on_time={task.succeeded}")
        self._mapping_event(event.time)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _on_fault(self, event: FaultEvent) -> None:
        if isinstance(event, MachineCrash):
            self._on_crash(event)
        elif isinstance(event, MachineRestart):
            self._on_restart(event)
        elif isinstance(event, SlowdownStart):
            self._slowdowns[event.token] = (event.machine_ids, event.factor)
            self.engine.schedule(SlowdownEnd(time=event.time + event.duration,
                                             token=event.token))
            self._trace(event.time, "slowdown_start",
                        detail=f"token={event.token} factor={event.factor}")
            self._advance_faults()
        elif isinstance(event, SlowdownEnd):
            self._slowdowns.pop(event.token, None)
            self._trace(event.time, "slowdown_end", detail=f"token={event.token}")
        elif isinstance(event, PartitionStart):
            self._partitions[event.token] = (event.machine_ids, event.time)
            self.engine.schedule(PartitionEnd(time=event.time + event.duration,
                                              token=event.token))
            self._trace(event.time, "partition_start",
                        detail=f"token={event.token} machines={event.machine_ids}")
            self._advance_faults()
        elif isinstance(event, PartitionEnd):
            entry = self._partitions.pop(event.token, None)
            if entry is not None:
                machine_ids, started = entry
                self.partition_time += (event.time - started) * len(machine_ids)
            self._trace(event.time, "partition_end", detail=f"token={event.token}")
            # Healed machines are mappable again: trigger a mapping event.
            self._mapping_event(event.time)
        else:  # pragma: no cover - no other fault kinds are scheduled
            raise TypeError(f"unexpected fault event {event!r}")

    def _on_crash(self, event: MachineCrash) -> None:
        now = event.time
        machine = self._machine_by_id.get(event.machine_id)
        if machine is None or machine.id in self._down:
            # The process draws victims independently of repair state; a
            # crash of an already-down (or unknown) machine is a no-op.
            self._advance_faults()
            return
        self._down.add(machine.id)
        self.num_crashes += 1
        running = machine.running_task
        partial_busy = 0
        if running is not None:
            task = self.tasks[running]
            started = task.start_time if task.start_time is not None else now
            partial_busy = now - started
            # Cancel the in-heap completion of the interrupted run.  The
            # completion fires strictly after ``now``: an equal-time one
            # already dispatched (completions precede faults at a tie).
            finish = started + self._sampled_exec[running]
            key = (running, machine.id, finish)
            self._cancelled_completions[key] = (
                self._cancelled_completions.get(key, 0) + 1)
        _, pending = machine.crash(partial_busy)
        affected = ([running] if running is not None else []) + pending
        requeue = event.policy == "requeue"
        for task_id in affected:
            task = self.tasks[task_id]
            if requeue and task.deadline > now:
                task.mark_requeued(now)
                self.batch_queue.push(task.id, task.deadline)
                self.num_requeued_tasks += 1
                self._trace(now, "requeued", task_id=task_id,
                            machine_id=machine.id)
            else:
                task.mark_lost(now)
                self.num_crash_lost += 1
                self.num_reactive_queue_drops += 1
                self._task_closed()
                self._trace(now, "lost_in_crash", task_id=task_id,
                            machine_id=machine.id)
        # The crash destroyed the queue every per-machine incremental chain
        # indexed; invalidate them all so a post-restart queue can never
        # reuse a PMF shifted to a pre-crash start time.
        self._invalidate_machine_caches(machine.id)
        self.engine.schedule(MachineRestart(time=now + event.repair_delay,
                                            machine_id=machine.id))
        self._trace(now, "crash", machine_id=machine.id,
                    detail=f"policy={event.policy} repair={event.repair_delay}")
        self._advance_faults()
        # Requeued tasks are mappable elsewhere right away.
        self._mapping_event(now)

    def _on_restart(self, event: MachineRestart) -> None:
        if event.machine_id not in self._down:
            return
        self._down.discard(event.machine_id)
        self._trace(event.time, "restart", machine_id=event.machine_id)
        # Restored capacity: trigger a mapping event.
        self._mapping_event(event.time)

    def _advance_faults(self) -> None:
        """Pull the next onset from the fault stream after one dispatched."""
        if self.fault_injector is not None:
            self.fault_injector.on_onset_dispatched(self.engine)

    def _invalidate_machine_caches(self, machine_id: int) -> None:
        """Discard every incremental-cache chain of one machine (crash)."""
        self._shifted_exec_cache.pop(machine_id, None)
        self._base_cache.pop(machine_id, None)
        self._tail_cache.pop(machine_id, None)
        self._drop_cache.pop(machine_id, None)

    def _machine_mappable(self, machine_id: int) -> bool:
        """False while the machine is down or cut off by a partition."""
        if machine_id in self._down:
            return False
        for token in self._partitions:
            if machine_id in self._partitions[token][0]:
                return False
        return True

    def _task_closed(self) -> None:
        """Bookkeeping for a task entering a terminal state."""
        self._open_tasks -= 1

    def _all_tasks_closed(self) -> bool:
        return self._open_tasks <= 0

    # ------------------------------------------------------------------
    # Mapping event
    # ------------------------------------------------------------------
    def _mapping_event(self, now: int) -> None:
        self.num_mapping_events += 1
        if self._folder is not None:
            # Fold memos serve one event; the tail cache carries chains on.
            self._folder.start_event()
        self._trace(now, "mapping_event")
        self._reactive_drop_queues(now)
        if self.config.drop_expired_batch:
            self._expire_batch_tasks(now)
        self._proactive_drop(now)
        self._map_tasks(now)
        self._dispatch(now)

    # -- step 1: reactive dropping ------------------------------------
    def _reactive_drop_queues(self, now: int) -> None:
        for machine in self.machines:
            for task_id in machine.pending_tasks:
                task = self.tasks[task_id]
                if task.deadline <= now:
                    machine.remove_pending(task_id)
                    task.mark_dropped(TaskStatus.DROPPED_REACTIVE, now)
                    self.num_reactive_queue_drops += 1
                    self._task_closed()
                    self._trace(now, "dropped_reactive", task_id=task_id,
                                machine_id=machine.id)

    def _expire_batch_tasks(self, now: int) -> None:
        # The deadline-indexed heap inside the batch queue surfaces exactly
        # the expired tasks, so a mapping event over a long backlog does not
        # scan the whole queue.
        for task_id in self.batch_queue.pop_expired(now):
            self.tasks[task_id].mark_dropped(TaskStatus.DROPPED_EXPIRED_BATCH, now)
            self.num_batch_expired_drops += 1
            self._task_closed()
            self.perf.batch_expired += 1
            self._trace(now, "expired_batch", task_id=task_id)

    # -- step 2: proactive dropping ------------------------------------
    def _proactive_drop(self, now: int) -> None:
        dropper = self.dropper
        if isinstance(dropper, NoProactiveDropping):
            return
        memoize = self.config.incremental and dropper.memoizable
        pressure = self._pressure()
        key_pressure = pressure if dropper.uses_pressure else 0.0
        for machine in self.machines:
            pending = machine.pending_snapshot()
            if not pending:
                continue
            base = self._machine_base_pmf(machine, now)
            decision: Optional[DropDecision] = None
            if memoize:
                cached = self._drop_cache.get(machine.id)
                if (cached is not None and cached[1] == pending
                        and cached[2] == key_pressure
                        and cached[0].identical(base)):
                    # Identical view => identical decision (policies declare
                    # purity via DroppingPolicy.memoizable).
                    decision = cached[3]
                    self.perf.drop_cache_hits += 1
            if decision is None:
                # The policy reads the machine's tail chain, so the no-drop
                # chain is folded once per machine (and cached on the
                # incremental path).
                chain = self._tail_chain(machine, now)
                view = MachineQueueView(
                    machine_id=machine.id,
                    now=now,
                    base_pmf=base,
                    entries=tuple(self._queue_entry(task_id, machine)
                                  for task_id in pending),
                    pressure=pressure,
                    chain=chain,
                )
                decision = dropper.evaluate_queue(view)
                self.perf.drop_evaluations += 1
                if memoize:
                    self._drop_cache[machine.id] = (base, pending, key_pressure,
                                                    decision)
            for idx in decision.drop_indices:
                task_id = pending[idx]
                machine.remove_pending(task_id)
                self.tasks[task_id].mark_dropped(TaskStatus.DROPPED_PROACTIVE, now)
                self.num_proactive_drops += 1
                self._task_closed()
                self._trace(now, "dropped_proactive", task_id=task_id,
                            machine_id=machine.id)
            if self.config.incremental and decision.chain is not None:
                # The policy already folded the survivors' chain behind the
                # drops: the tail cache takes it instead of refolding.
                survivors = machine.pending_snapshot()
                if len(decision.chain) == len(survivors):
                    self._tail_cache[machine.id] = (base, survivors,
                                                    list(decision.chain))

    # -- step 3: mapping -------------------------------------------------
    def _map_tasks(self, now: int) -> None:
        if self.batch_queue.is_empty:
            return
        # Down or partitioned machines are invisible to the mapper (a
        # drained machine must not accept mappings); with no active fault
        # the filter is the identity and the behaviour is unchanged.
        if self._down or self._partitions:
            machines = [machine for machine in self.machines
                        if self._machine_mappable(machine.id)]
            if not machines:
                return
        else:
            machines = self.machines
        # Check slot availability before building any completion PMF: in a
        # saturated system most mapping events find every queue full, and
        # the scheduler views are only needed when the mapper can act.
        if not any(machine.has_free_slot for machine in machines):
            return
        machine_states = [self._machine_state(machine, now) for machine in machines]
        window_ids = self.batch_queue.window(self.config.batch_window)
        task_views = [self._task_view(task_id) for task_id in window_ids]
        ctx = MappingContext(self.pet, now, folder=self._folder,
                             scoring=self.config.scoring,
                             small_plane_tasks=self.config.small_plane_tasks,
                             exec_view=self._exec_view)
        assignments = self.mapper.map_tasks(task_views, machine_states, ctx)
        self.perf.plane_evals += ctx.plane_evals
        self.perf.plane_rounds += ctx.plane_rounds
        self._apply_assignments(assignments, now)
        if self.config.incremental:
            # Extend the tail chains of busy machines that took tasks while
            # this event's fold memo still holds the mapper's appended
            # folds.  An idle machine starts its head at dispatch, which
            # moves the base and discards the chain anyway.
            for state in machine_states:
                machine = self._machine_by_id[state.machine_id]
                if state.version and machine.running_task is not None:
                    self._tail_chain(machine, now)

    def _apply_assignments(self, assignments: Sequence[Assignment], now: int) -> None:
        for assignment in assignments:
            task = self.tasks[assignment.task_id]
            machine = self._machine_by_id[assignment.machine_id]
            self.batch_queue.remove(task.id)
            machine.enqueue(task.id)
            task.mark_queued(machine.id, now)
            self._trace(now, "mapped", task_id=task.id, machine_id=machine.id)

    # -- step 4: dispatch -------------------------------------------------
    def _dispatch(self, now: int) -> None:
        for machine in self.machines:
            if machine.id in self._down:
                continue
            if not machine.is_idle:
                continue
            while machine.pending_tasks:
                head_id = machine.pending_tasks[0]
                head = self.tasks[head_id]
                if head.deadline <= now:
                    # The deadline passed since mapping; drop reactively
                    # rather than wasting the machine on a hopeless task.
                    machine.remove_pending(head_id)
                    head.mark_dropped(TaskStatus.DROPPED_REACTIVE, now)
                    self.num_reactive_queue_drops += 1
                    self._task_closed()
                    self._trace(now, "dropped_reactive", task_id=head_id,
                                machine_id=machine.id)
                    continue
                task_id = machine.start_next()
                task = self.tasks[task_id]
                task.mark_running(now)
                duration = self._sample_execution(task, machine, now)
                finish = now + duration
                self.engine.schedule(TaskCompletion(time=finish, task_id=task.id,
                                                    machine_id=machine.id))
                self._trace(now, "started", task_id=task.id, machine_id=machine.id,
                            detail=f"duration={duration}")
                break  # the machine is now busy

    # ------------------------------------------------------------------
    # Scheduler views
    # ------------------------------------------------------------------
    def _exec_pmf(self, type_id: int, machine: Machine) -> PMF:
        """Execution PMF of a pair, transfer-composed when a topology is on.

        Every scheduler view -- base/tail chains, queue entries handed to
        dropping policies, naive recomputation -- routes through here, so
        mapping scores and drop decisions see data locality automatically.
        With no effective topology this is exactly the raw PET entry.
        """
        if self._exec_view is not None:
            return self._exec_view.pmf(type_id, machine.id)
        return self.pet.pmf(type_id, machine.type_id)

    def _machine_base_pmf(self, machine: Machine, now: int) -> PMF:
        """Completion PMF of whatever precedes the machine's pending queue."""
        running = machine.running_task
        if running is None:
            return PMF.delta(now)
        if not self.config.incremental:
            task = self.tasks[running]
            exec_pmf = self._exec_pmf(task.type_id, machine)
            started = task.start_time if task.start_time is not None else now
            return exec_pmf.shift(started).conditional_at_least(now)
        shifted, times = self._shifted_exec_pmf(machine, running, now)
        # Conditioning on ``X >= now`` gives bitwise the same PMF for every
        # ``now`` that leaves the same impulses before it, so the base is
        # keyed on that count; past the last impulse it is a delta at now.
        before = bisect_left(times, now)
        stamp = (before, now if before == len(times) else None)
        cached = self._base_cache.get(machine.id)
        if cached is not None and cached[0] == running and cached[1] == stamp:
            return cached[2]
        base = shifted.conditional_at_least(now)
        self._base_cache[machine.id] = (running, stamp, base)
        return base

    def _shifted_exec_pmf(self, machine: Machine, task_id: int,
                          now: int) -> Tuple[PMF, List[int]]:
        """Execution PMF of the running task, shifted to its start time, and
        the times of its impulses.

        Cached per machine for the lifetime of the running task, so the
        conditioned base built from it is the *same* object while no impulse
        passes, which lets the tail cache detect an unchanged base in O(1).
        """
        cached = self._shifted_exec_cache.get(machine.id)
        if cached is not None and cached[0] == task_id:
            return cached[1], cached[2]
        task = self.tasks[task_id]
        started = task.start_time if task.start_time is not None else now
        shifted = self._exec_pmf(task.type_id, machine).shift(started)
        times = (np.flatnonzero(shifted.probs) + shifted.min_time).tolist()
        self._shifted_exec_cache[machine.id] = (task_id, shifted, times)
        return shifted, times

    def _queue_entry(self, task_id: int, machine: Machine) -> QueueEntry:
        task = self.tasks[task_id]
        return QueueEntry(task_id=task.id,
                          exec_pmf=self._exec_pmf(task.type_id, machine),
                          deadline=task.deadline)

    def _machine_state(self, machine: Machine, now: int) -> MachineState:
        if self.config.incremental:
            # Heuristics only read the tails of machines they can assign to,
            # and most queues are full at most events of an oversubscribed
            # run: defer the Eq. 1 chain fold until the tail is actually
            # accessed.  The system state is frozen for the duration of the
            # mapping event, so a deferred fold sees exactly the inputs an
            # eager one would have seen.
            return MachineState(machine_id=machine.id, type_id=machine.type_id,
                                free_slots=machine.free_slots,
                                tail_source=lambda: self._tail_pmf(machine, now))
        # The naive path keeps the paper-literal behaviour -- every scheduler
        # view is built at every mapping event -- so it stays a stable
        # recompute-everything reference for the equivalence tests.
        return MachineState(machine_id=machine.id, type_id=machine.type_id,
                            free_slots=machine.free_slots,
                            tail_pmf=self._tail_pmf(machine, now))

    def _fold_task(self, prev: PMF, machine: Machine, task_id: int) -> PMF:
        """One completion_pmf fold of the machine-queue chain (Eq. 1)."""
        task = self.tasks[task_id]
        self.perf.pmf_folds += 1
        exec_pmf = self._exec_pmf(task.type_id, machine)
        if self._folder is not None:
            return self._folder.fold(prev, exec_pmf, task.deadline)
        return completion_pmf(prev, exec_pmf, task.deadline)

    def _tail_pmf(self, machine: Machine, now: int) -> PMF:
        """Completion PMF of the machine queue's tail (Eq. 1 chained)."""
        chain = self._tail_chain(machine, now)
        return chain[-1] if chain else self._machine_base_pmf(machine, now)

    def _tail_chain(self, machine: Machine, now: int) -> List[PMF]:
        """Completion PMFs of every pending task, in queue order (Eq. 1).

        The incremental path caches, per machine, the base PMF, the pending
        ids and every intermediate fold of the chain, and returns that
        cached list itself: callers must not mutate it.  A lookup whose
        base is bitwise-identical to the cached one reuses the longest
        common prefix of the pending queue and folds only what changed: an
        enqueue appends one fold, a drop at position ``k`` rebuilds from
        ``k``, and an untouched queue costs no fold at all.  Any base
        change (the clock entered the running task's support, or a new
        task started) discards the chain, so results are exactly those of
        a full recomputation.  The proactive dropper reads this same list
        and hands back its survivors' chain after drops, so each machine
        has one chain.
        """
        pending = machine.pending_snapshot()
        if not pending:
            return []
        base = self._machine_base_pmf(machine, now)
        if not self.config.incremental:
            chain: List[PMF] = []
            tail = base
            for task_id in pending:
                tail = self._fold_task(tail, machine, task_id)
                chain.append(tail)
            return chain
        cached = self._tail_cache.get(machine.id)
        keep = 0
        prefix: List[PMF] = []
        if cached is not None and cached[0].identical(base):
            cached_pending, cached_prefix = cached[1], cached[2]
            limit = min(len(cached_pending), len(pending))
            while keep < limit and cached_pending[keep] == pending[keep]:
                keep += 1
            if keep == len(pending) == len(cached_pending):
                self.perf.tail_cache_hits += 1
                return cached_prefix
            prefix = cached_prefix[:keep]
            self.perf.tail_cache_extends += 1
        else:
            self.perf.tail_cache_rebuilds += 1
        prev = prefix[-1] if prefix else base
        for task_id in pending[keep:]:
            prev = self._fold_task(prev, machine, task_id)
            prefix.append(prev)
        self._tail_cache[machine.id] = (base, pending, prefix)
        return prefix

    def _task_view(self, task_id: int) -> TaskView:
        task = self.tasks[task_id]
        return TaskView(task_id=task.id, type_id=task.type_id,
                        arrival=task.arrival, deadline=task.deadline)

    def _pressure(self) -> float:
        """Unmapped work relative to total machine-queue capacity, in [0, 1]."""
        capacity = self._total_queue_capacity
        if capacity <= 0:
            return 1.0
        return min(1.0, len(self.batch_queue) / capacity)

    def _sample_execution(self, task: Task, machine: Machine, now: int) -> int:
        duration = int(self.pet.pmf(task.type_id, machine.type_id).sample(self.rng))
        duration = max(duration, 1)
        if self.uncertainty is not None:
            duration = self.uncertainty.perturb_execution(
                duration, task.type_id, machine.type_id, self.rng)
        if self._slowdowns:
            # Open slowdown windows inflate every execution started on an
            # affected machine; no extra RNG draw, so the sampling stream
            # stays aligned with a fault-free run.
            factor = 1.0
            for token in self._slowdowns:
                scope, window_factor = self._slowdowns[token]
                if not scope or machine.id in scope:
                    factor *= window_factor
            if factor != 1.0:
                duration = max(int(duration * factor), 1)
        if self._bound_topology is not None:
            # Transfer occupies the machine before compute starts; shared
            # link groups additionally queue behind earlier transfers
            # (deterministic busy-until clocks, no RNG draw, so the
            # sampling stream stays aligned with a topology-free run).
            # Slowdown windows inflate compute only, never the network.
            # The total is stored in _sampled_exec so crash cancellation
            # keys and snapshot duration derivation stay consistent; a
            # requeued task re-pays its transfer on re-dispatch.
            transfer = self._exec_view.transfer(task.type_id, machine.id)
            if transfer:
                wait = self._bound_topology.acquire(
                    machine.id, transfer, now, self._link_busy)
                self.num_transfers += 1
                self.transfer_time_total += transfer
                self.transfer_wait_total += wait
                duration += wait + transfer
        self._sampled_exec[task.id] = duration
        return duration

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> SimulationResult:
        """Run until the event queue drains (system back to idle).

        With ``until`` the engine stops at that inclusive horizon and leaves
        the clock *at* it, so the reported makespan covers the span that was
        actually simulated even when the last event fired earlier.
        """
        start = time.perf_counter()
        stop_when = None
        if self.fault_injector is not None:
            self.fault_injector.start(self.engine)
            if until is None:
                # The onset stream alone keeps the heap populated forever;
                # a fault-active batch run ends when every submitted task
                # reached a terminal state (same clock semantics as a
                # natural drain: the closing event sets the makespan).
                stop_when = self._all_tasks_closed
        try:
            with active_folder(self._folder):
                self.engine.run(self, until=until, stop_when=stop_when)
        finally:
            self.perf.wall_time_s += time.perf_counter() - start
        return self.result()

    def result(self) -> SimulationResult:
        """Snapshot of the current simulation outcome."""
        self.perf.mapping_events = self.num_mapping_events
        self.perf.events_dispatched = self.engine.dispatched_events
        if self._folder is not None:
            # Add the hits since the last call, so a count restored from a
            # snapshot carries forward under the restored run's new folder.
            self.perf.fold_memo_hits += (self._folder.memo_hits
                                         - self._memo_hits_seen)
            self._memo_hits_seen = self._folder.memo_hits
        return SimulationResult(
            tasks=self.tasks,
            machines=self.machines,
            machine_types=self.machine_types,
            task_types=self.task_types,
            makespan=self.engine.now,
            num_mapping_events=self.num_mapping_events,
            num_proactive_drops=self.num_proactive_drops,
            num_reactive_queue_drops=self.num_reactive_queue_drops,
            num_batch_expired_drops=self.num_batch_expired_drops,
            num_dispatched_events=self.engine.dispatched_events,
            num_crashes=self.num_crashes,
            num_requeued_tasks=self.num_requeued_tasks,
            num_crash_lost=self.num_crash_lost,
            partition_time=self.partition_time,
            faults_active=self.fault_injector is not None,
            num_transfers=self.num_transfers,
            transfer_time=self.transfer_time_total,
            transfer_wait=self.transfer_wait_total,
            topology_active=self._bound_topology is not None,
            perf=self.perf,
        )

    # ------------------------------------------------------------------
    def _trace(self, time: int, kind: str, task_id: Optional[int] = None,
               machine_id: Optional[int] = None, detail: str = "") -> None:
        if self.trace.enabled:
            self.trace.record(TraceRecord(time=time, kind=kind, task_id=task_id,
                                          machine_id=machine_id, detail=detail))
