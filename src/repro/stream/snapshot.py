"""Snapshot/resume of a live streaming service, bit-identically.

A snapshot captures everything that determines the future of a
:class:`~repro.stream.service.StreamingSimulation` as plain JSON, in the
layout :class:`_Snapshot` declares: the
:class:`~repro.stream.service.StreamSpec` (the platform, PET and policies
rebuild from seeds alone), the engine clock and pending events in dispatch
order, the in-flight tasks plus per-status counters of the finished ones,
per-machine runtime state, the batch queue in FIFO order, the
execution-sampling RNG state (exact integers), the traffic stream
position (the stream is a pure function of the seed, so the count of
accepted events re-derives it) and the live-metrics accumulators; plus,
while a fault process is active, the fault stream position, down /
slowed / partitioned machines, cancelled completions and churn counters,
and while a topology moves data, the link-group clocks and transfer
counters (transfer scheduling draws no randomness).

A finished (terminal) task can never change again, and the service's
metrics apply no warm-up/cool-down exclusion, so all it still contributes
is its status: the snapshot writes every task that is not terminal, plus
any terminal one a pending engine event still names (a crash-cancelled
completion), and folds the rest into the ``finished`` counters.  A
checkpoint's task section therefore grows with the tasks in flight, not
with uptime.  The section is conditional: a snapshot with no finished
task omits it, and one written before it existed (holding every task)
loads as zero counts and restores through the same path.

What is deliberately *not* serialised: the simulator's incremental
completion-PMF caches.  Every cache is gated on bitwise-identical inputs,
so a restored system with cold caches recomputes exactly the values the
warm caches would have returned -- only the perf counters (cache hits,
wall time) differ, and those are ``compare=False`` everywhere.  This is
what makes the pin provable: run-to-T -> snapshot -> restore -> run-to-U
equals run-straight-to-U on :class:`~repro.metrics.collector.TrialMetrics`
and the metrics timeline.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import (TYPE_CHECKING, Annotated, Any, Callable, Dict, Iterator,
                    List, Mapping, NamedTuple, Optional, Tuple, Type)

from ..records import Record, require_mapping
from ..sim.events import Event, SimulationEnd, TaskArrival, TaskCompletion
from ..sim.fault_events import (MachineCrash, MachineRestart, PartitionEnd,
                                PartitionStart, SlowdownEnd, SlowdownStart)
from ..sim.perf import PerfStats
from ..sim.task import Task, TaskStatus
from .live_metrics import LiveState
from .service import StreamSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .live_metrics import WindowStats
    from .service import StreamingSimulation

__all__ = ["SNAPSHOT_FORMAT", "snapshot_state", "restore_state",
           "write_snapshot", "read_snapshot"]

#: Format marker embedded in every snapshot; bumped on breaking layout
#: changes so stale artifacts fail loudly instead of restoring garbage.
SNAPSHOT_FORMAT = "repro-stream-snapshot/v1"

#: The snapshot ``kind`` of every event class a pending heap can hold.
_EVENT_KINDS: Dict[str, Type[Event]] = {
    "arrival": TaskArrival, "completion": TaskCompletion,
    "end": SimulationEnd, "crash": MachineCrash, "restart": MachineRestart,
    "slowdown-start": SlowdownStart, "slowdown-end": SlowdownEnd,
    "partition-start": PartitionStart, "partition-end": PartitionEnd}


# ----------------------------------------------------------------------
# The layout: one record per section, one NamedTuple per fixed list
# ----------------------------------------------------------------------

_Queued = NamedTuple("_Queued", [("task_id", int), ("deadline", int)])
_Slowdown = NamedTuple("_Slowdown", [("token", int),
                                     ("machine_ids", Tuple[int, ...]),
                                     ("factor", float)])
_Partition = NamedTuple("_Partition", [("token", int),
                                       ("machine_ids", Tuple[int, ...]),
                                       ("started", int)])
_Cancelled = NamedTuple("_Cancelled", [("task_id", int), ("machine_id", int),
                                       ("time", int), ("count", int)])
_LinkBusy = NamedTuple("_LinkBusy", [("group", str), ("until", int)])


@dataclass
class _Engine(Record):
    now: int
    dispatched: int
    #: Pending events in dispatch order.
    pending: List[Annotated[Event, _EVENT_KINDS]]


@dataclass
class _Machine(Record):
    id: int
    running_task: Optional[int]
    pending: List[int]
    busy_time: int
    started_tasks: int


@dataclass
class _Counters(Record):
    num_mapping_events: int
    num_proactive_drops: int
    num_reactive_queue_drops: int
    num_batch_expired_drops: int


@dataclass
class _RngState(Record):
    """A PCG64 state dict (exact integers round-trip through JSON)."""

    bit_generator: str
    state: Dict[str, int]
    has_uint32: int
    uinteger: int


@dataclass
class _FaultCounters(Record):
    num_crashes: int
    num_requeued_tasks: int
    num_crash_lost: int
    partition_time: int


@dataclass
class _Faults(Record):
    consumed: int
    down: List[int]
    slowdowns: List[_Slowdown]
    partitions: List[_Partition]
    cancelled_completions: List[_Cancelled]
    counters: _FaultCounters


@dataclass
class _TransferTotals(Record):
    num_transfers: int
    transfer_time: int
    transfer_wait: int


@dataclass
class _Topology(Record):
    link_busy: List[_LinkBusy]
    counters: _TransferTotals


@dataclass
class _Finished(Record):
    """Terminal tasks folded out of ``tasks``, counted by status (the field
    names are the :class:`~repro.sim.task.TaskStatus` values)."""

    completed_on_time: int
    completed_late: int
    dropped_reactive: int
    dropped_proactive: int
    dropped_expired_batch: int


#: The statuses :class:`_Finished` counts, in field order.
_FINISHED = tuple(TaskStatus(f.name) for f in dataclass_fields(_Finished))


@dataclass
class _Snapshot(Record):
    format: str
    spec: StreamSpec
    horizon: int
    next_task_id: int
    traffic_consumed: int
    engine: _Engine
    #: Tasks not yet terminal, plus terminal ones pending events name.
    tasks: List[Task]
    machines: List[_Machine]
    #: The batch queue in FIFO order.
    batch_queue: List[_Queued]
    counters: _Counters
    perf: PerfStats = field(compare=False)
    rng_state: _RngState
    live: LiveState
    #: Written only while a fault process / an effective topology is
    #: bound, so snapshots without them keep the pre-axis layout.
    faults: Optional[_Faults] = None
    topology: Optional[_Topology] = None
    #: Written only once some task finished; absent, the counts are zero.
    finished: Optional[_Finished] = None

    CONDITIONAL = ("faults", "topology", "finished")


def _read_attrs(cls: Any, source: object) -> Any:
    """A counters record filled from ``source``'s same-named attributes."""
    return cls(**{f.name: getattr(source, f.name)
                  for f in dataclass_fields(cls)})


@contextlib.contextmanager
def _section(where: str) -> Iterator[None]:
    """Name the snapshot path ``where`` in a restore-time rejection."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"snapshot {where} is invalid: {exc}") from None


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------

def _fold_finished(system: Any, pending: List[Event]
                   ) -> Tuple[List[Task], Optional[_Finished]]:
    """The tasks a snapshot keeps (not terminal, or named by a pending
    event) and the per-status counts of the rest, on top of the counts the
    system already carries (``None`` while there are none)."""
    named = {event.task_id for event in pending
             if isinstance(event, (TaskArrival, TaskCompletion))}
    counts = dict.fromkeys(_FINISHED, 0)
    counts.update(system.carried)
    kept = []
    for task in system.tasks.values():
        if task.status in counts and task.id not in named:
            counts[task.status] += 1
        else:
            kept.append(task)
    if not any(counts.values()):
        return kept, None
    return kept, _Finished(*counts.values())


def snapshot_state(service: "StreamingSimulation") -> Dict[str, object]:
    """Serialise the full live state of a service to a JSON-ready dict."""
    system = service.system
    engine = system.engine
    pending = engine.pending_snapshot()
    tasks, finished = _fold_finished(system, pending)
    faults = topology = None
    if system.fault_injector is not None:
        faults = _Faults(
            consumed=system.fault_injector.consumed,
            down=sorted(system._down),
            slowdowns=[_Slowdown(token, scope, factor)
                       for token, (scope, factor)
                       in system._slowdowns.items()],
            partitions=[_Partition(token, ids, started)
                        for token, (ids, started)
                        in system._partitions.items()],
            cancelled_completions=[
                _Cancelled(task_id, machine_id, time, count)
                for (task_id, machine_id, time), count
                in system._cancelled_completions.items()],
            counters=_read_attrs(_FaultCounters, system))
    if system._bound_topology is not None:
        topology = _Topology(
            link_busy=[_LinkBusy(group, until) for group, until
                       in sorted(system._link_busy.items())],
            counters=_TransferTotals(
                num_transfers=system.num_transfers,
                transfer_time=system.transfer_time_total,
                transfer_wait=system.transfer_wait_total))
    return _Snapshot(
        format=SNAPSHOT_FORMAT, spec=service.spec, horizon=service.horizon,
        next_task_id=service._next_task_id,
        traffic_consumed=service._consumed,
        engine=_Engine(now=engine.now, dispatched=engine.dispatched_events,
                       pending=pending),
        tasks=tasks,
        machines=[_Machine(id=m.id, running_task=m.running_task,
                           pending=m.pending_tasks, busy_time=m.busy_time,
                           started_tasks=m.started_tasks)
                  for m in system.machines],
        batch_queue=[_Queued(task_id, system.tasks[task_id].deadline)
                     for task_id in system.batch_queue.snapshot()],
        counters=_read_attrs(_Counters, system),
        perf=system.perf,
        rng_state=_RngState(**system.rng.bit_generator.state),
        live=service.live.state(),
        faults=faults, topology=topology, finished=finished).to_dict()


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def restore_state(payload: Mapping[str, object],
                  on_window: Optional[Callable[["WindowStats"], None]] = None,
                  chunk_tasks: int = 512) -> "StreamingSimulation":
    """Rebuild a live service from :func:`snapshot_state` output (a
    malformed value or a missing key raises ``ValueError`` naming its
    path)."""
    require_mapping(payload, "snapshot payload")
    marker = payload.get("format")
    if marker != SNAPSHOT_FORMAT:
        raise ValueError(f"not a stream snapshot: snapshot format must be "
                         f"{SNAPSHOT_FORMAT!r}, got {marker!r}")
    return _restore(_Snapshot.from_dict(payload, "snapshot"), on_window,
                    chunk_tasks)


def _check_count(where: str, value: int, bound: Optional[int] = None,
                 what: str = "") -> None:
    """Reject a count outside ``[0, bound]`` (``bound`` ``None``: no cap)."""
    with _section(where):
        if value < 0:
            raise ValueError(f"{value} is negative")
        if bound is not None and value > bound:
            raise ValueError(f"{value} exceeds {what} ({bound})")


def _restore(snapshot: _Snapshot,
             on_window: Optional[Callable[["WindowStats"], None]],
             chunk_tasks: int) -> "StreamingSimulation":
    from .service import StreamingSimulation

    service = StreamingSimulation(snapshot.spec, on_window=on_window,
                                  chunk_tasks=chunk_tasks)
    system = service.system

    # Finished tasks the snapshot carries as counts only: each is an id
    # minted that no kept task holds, or the metrics would count it twice.
    carried: Dict[TaskStatus, int] = {}
    if snapshot.finished is not None:
        for status, count in zip(_FINISHED, vars(snapshot.finished).values()):
            _check_count(f"finished.{status.value}", count)
            if count:
                carried[status] = count
        _check_count("finished", sum(carried.values()),
                     max(snapshot.next_task_id - len(snapshot.tasks), 0),
                     "next_task_id less the tasks kept")

    # Stream positions are replayed one event at a time, so each is bounded
    # by a count it cannot exceed: every id minted is a task in the
    # snapshot or a carried count, every consumed arrival minted one id,
    # and every fault onset consumed was dispatched or is still pending in
    # the engine.
    _check_count("next_task_id", snapshot.next_task_id,
                 len(snapshot.tasks) + sum(carried.values()),
                 "the number of tasks")
    _check_count("traffic_consumed", snapshot.traffic_consumed,
                 snapshot.next_task_id, "next_task_id")
    _check_count("engine.dispatched", snapshot.engine.dispatched)
    if snapshot.faults is not None:
        _check_count("faults.consumed", snapshot.faults.consumed,
                     snapshot.engine.dispatched + len(snapshot.engine.pending),
                     "dispatched plus pending engine events")

    # Traffic position: regenerate and discard the already-consumed prefix
    # of the (seed-determined) stream.
    service._fast_forward_traffic(snapshot.traffic_consumed)
    service._next_task_id = snapshot.next_task_id
    service._horizon = snapshot.horizon

    # Tasks, machines and the batch queue (FIFO order preserved so expiry
    # tie-breaking reproduces exactly).  Ids are unique and below
    # next_task_id, or the run would later mint one twice.
    system.tasks.clear()
    system.carried = carried
    machines_by_id = {m.id: m for m in system.machines}
    for i, task in enumerate(snapshot.tasks):
        with _section(f"tasks[{i}]"):
            if task.id in system.tasks:
                raise ValueError(f"duplicate task id {task.id}")
            if task.id >= snapshot.next_task_id:
                raise ValueError(f"task id {task.id} is not below "
                                 f"next_task_id ({snapshot.next_task_id})")
            if not 0 <= task.type_id < len(system.task_types):
                raise ValueError(f"unknown task type {task.type_id}")
            if (task.machine_id is not None
                    and task.machine_id not in machines_by_id):
                raise ValueError(f"unknown machine {task.machine_id}")
        system.tasks[task.id] = task
    for i, entry in enumerate(snapshot.machines):
        with _section(f"machines[{i}]"):
            if entry.id not in machines_by_id:
                raise ValueError(f"unknown machine {entry.id}")
            machines_by_id[entry.id].restore_runtime_state(
                running_task=entry.running_task, pending=entry.pending,
                busy_time=entry.busy_time, started_tasks=entry.started_tasks)
    for i, (task_id, deadline) in enumerate(snapshot.batch_queue):
        with _section(f"batch_queue[{i}]"):
            system.batch_queue.push(task_id, deadline)

    # The counters records mirror HCSystem / PerfStats attribute names.
    vars(system).update(vars(snapshot.counters))
    vars(system.perf).update(vars(snapshot.perf))

    # RNG: the PCG64 state dict round-trips through JSON exactly (plain
    # Python integers), so execution sampling continues draw-for-draw.
    with _section("rng_state"):
        system.rng.bit_generator.state = vars(snapshot.rng_state)

    # Engine: replay the pending events (already in dispatch order) into
    # the fresh heap; new sequence numbers preserve the tie-breaking.
    engine = snapshot.engine
    system.engine.load_state(now=engine.now, dispatched=engine.dispatched,
                             events=engine.pending)

    # Open-task accounting (terminal transitions decrement it; the restore
    # path bypassed submit()).
    system._open_tasks = sum(1 for t in system.tasks.values()
                             if not t.status.is_terminal)

    faults = snapshot.faults
    if faults is not None:
        if system.fault_injector is None:
            raise ValueError("snapshot carries fault state but its spec "
                             "has no fault process")
        system._down = set(faults.down)
        system._slowdowns = {s.token: (s.machine_ids, s.factor)
                             for s in faults.slowdowns}
        system._partitions = {p.token: (p.machine_ids, p.started)
                              for p in faults.partitions}
        system._cancelled_completions = {
            (c.task_id, c.machine_id, c.time): c.count
            for c in faults.cancelled_completions}
        vars(system).update(vars(faults.counters))
        # Stream position: replay the seeded onset stream; the pending
        # onset itself was restored with the engine events above.
        with _section("faults.consumed"):
            system.fault_injector.fast_forward(faults.consumed)
        # A crash cancels the running task's completion at
        # start_time + sampled duration; rebuild the sampled durations of
        # in-flight runs from their pending completion events.  A key with
        # more pending events than cancellations has at least one *real*
        # completion (coincident re-finishes share the key, and therefore
        # the derived duration); keys fully covered by cancellations are
        # stale and would derive the wrong duration from the new start.
        pending_counts: Dict[tuple, int] = {}
        for event in engine.pending:
            if isinstance(event, TaskCompletion):
                key = (event.task_id, event.machine_id, event.time)
                pending_counts[key] = pending_counts.get(key, 0) + 1
        for key, count in pending_counts.items():
            if count <= system._cancelled_completions.get(key, 0):
                continue
            task_id, _, time = key
            task = system.tasks.get(task_id)
            if task is not None and task.start_time is not None:
                system._sampled_exec[task_id] = time - task.start_time

    topology = snapshot.topology
    if topology is not None:
        if system._bound_topology is None:
            raise ValueError("snapshot carries topology state but its spec "
                             "binds no effective topology")
        system._link_busy = dict(topology.link_busy)
        system.num_transfers = topology.counters.num_transfers
        system.transfer_time_total = topology.counters.transfer_time
        system.transfer_wait_total = topology.counters.transfer_wait

    with _section("live"):
        service.live.load_state(snapshot.live)
    return service


# ----------------------------------------------------------------------
# File helpers (CLI `repro serve --snapshot/--restore`)
# ----------------------------------------------------------------------

def write_snapshot(service: "StreamingSimulation",
                   path: str) -> Dict[str, object]:
    """Snapshot a service to a JSON file; returns the payload."""
    payload = snapshot_state(service)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload


def read_snapshot(path: str) -> Dict[str, object]:
    """Read a snapshot payload back from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
