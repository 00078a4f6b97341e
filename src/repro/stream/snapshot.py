"""Snapshot/resume of a live streaming service, bit-identically.

A snapshot captures everything that determines the future of a
:class:`~repro.stream.service.StreamingSimulation` as plain JSON:

* the :class:`~repro.stream.service.StreamSpec` (so the platform, PET and
  policies rebuild from seeds alone),
* the engine clock, dispatch count and every pending event in dispatch
  order,
* every task ever submitted (status, timestamps, placement),
* per-machine runtime state (running task, pending queue, busy time),
* the batch queue in FIFO order,
* the execution-sampling RNG state (PCG64 state dict -- exact integers),
* the traffic stream position (count of accepted events; the stream is a
  pure function of the seed, so the count alone re-derives it),
* the live-metrics accumulators (closed windows, open window, EWMA state),
  and
* when a fault process is active: the fault stream position, the down /
  slowed / partitioned machine state, the cancelled-completion table and
  the churn counters (the fault schedule, like traffic, is a pure function
  of its seed, so the position alone re-derives the stream), and
* when a topology is active: the per-link-group busy-until clocks and the
  transfer counters (the transfer schedule is RNG-free, so this is the
  entire network state).

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

import json
from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from ..sim.events import Event, SimulationEnd, TaskArrival, TaskCompletion
from ..sim.fault_events import (MachineCrash, MachineRestart, PartitionEnd,
                                PartitionStart, SlowdownEnd, SlowdownStart)
from ..sim.perf import PerfStats
from ..sim.task import Task, TaskStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .live_metrics import WindowStats
    from .service import StreamingSimulation

__all__ = ["SNAPSHOT_FORMAT", "snapshot_state", "restore_state",
           "write_snapshot", "read_snapshot"]

#: Format marker embedded in every snapshot; bumped on breaking layout
#: changes so stale artifacts fail loudly instead of restoring garbage.
SNAPSHOT_FORMAT = "repro-stream-snapshot/v1"

_TASK_FIELDS = ("id", "type_id", "arrival", "deadline", "machine_id",
                "queued_time", "start_time", "finish_time", "drop_time")


def _event_to_dict(event: Event) -> Dict[str, object]:
    if isinstance(event, TaskArrival):
        return {"kind": "arrival", "time": event.time,
                "task_id": event.task_id}
    if isinstance(event, TaskCompletion):
        return {"kind": "completion", "time": event.time,
                "task_id": event.task_id, "machine_id": event.machine_id}
    if isinstance(event, SimulationEnd):
        return {"kind": "end", "time": event.time}
    if isinstance(event, MachineCrash):
        return {"kind": "crash", "time": event.time,
                "machine_id": event.machine_id,
                "repair_delay": event.repair_delay, "policy": event.policy}
    if isinstance(event, MachineRestart):
        return {"kind": "restart", "time": event.time,
                "machine_id": event.machine_id}
    if isinstance(event, SlowdownStart):
        return {"kind": "slowdown-start", "time": event.time,
                "token": event.token,
                "machine_ids": list(event.machine_ids),
                "factor": event.factor, "duration": event.duration}
    if isinstance(event, SlowdownEnd):
        return {"kind": "slowdown-end", "time": event.time,
                "token": event.token}
    if isinstance(event, PartitionStart):
        return {"kind": "partition-start", "time": event.time,
                "token": event.token,
                "machine_ids": list(event.machine_ids),
                "duration": event.duration}
    if isinstance(event, PartitionEnd):
        return {"kind": "partition-end", "time": event.time,
                "token": event.token}
    raise TypeError(f"cannot serialise event {event!r}")


def _event_from_dict(payload: Mapping[str, object]) -> Event:
    kind = payload["kind"]
    if kind == "arrival":
        return TaskArrival(time=int(payload["time"]),
                           task_id=int(payload["task_id"]))
    if kind == "completion":
        return TaskCompletion(time=int(payload["time"]),
                              task_id=int(payload["task_id"]),
                              machine_id=int(payload["machine_id"]))
    if kind == "end":
        return SimulationEnd(time=int(payload["time"]))
    if kind == "crash":
        return MachineCrash(time=int(payload["time"]),
                            machine_id=int(payload["machine_id"]),
                            repair_delay=int(payload["repair_delay"]),
                            policy=str(payload["policy"]))
    if kind == "restart":
        return MachineRestart(time=int(payload["time"]),
                              machine_id=int(payload["machine_id"]))
    if kind == "slowdown-start":
        return SlowdownStart(time=int(payload["time"]),
                             token=int(payload["token"]),
                             machine_ids=tuple(
                                 int(m) for m in payload["machine_ids"]),
                             factor=float(payload["factor"]),
                             duration=int(payload["duration"]))
    if kind == "slowdown-end":
        return SlowdownEnd(time=int(payload["time"]),
                           token=int(payload["token"]))
    if kind == "partition-start":
        return PartitionStart(time=int(payload["time"]),
                              token=int(payload["token"]),
                              machine_ids=tuple(
                                  int(m) for m in payload["machine_ids"]),
                              duration=int(payload["duration"]))
    if kind == "partition-end":
        return PartitionEnd(time=int(payload["time"]),
                            token=int(payload["token"]))
    raise ValueError(f"unknown event kind {kind!r} in snapshot")


def _task_to_dict(task: Task) -> Dict[str, object]:
    payload = {name: getattr(task, name) for name in _TASK_FIELDS}
    payload["status"] = task.status.value
    return payload


def _task_from_dict(payload: Mapping[str, object]) -> Task:
    kwargs = {name: payload[name] for name in _TASK_FIELDS}
    return Task(status=TaskStatus(payload["status"]), **kwargs)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------

def snapshot_state(service: "StreamingSimulation") -> Dict[str, object]:
    """Serialise the full live state of a service to a JSON-ready dict."""
    system = service.system
    engine = system.engine
    payload: Dict[str, object] = {
        "format": SNAPSHOT_FORMAT,
        "spec": service.spec.to_dict(),
        "horizon": service.horizon,
        "next_task_id": service._next_task_id,
        "traffic_consumed": service._consumed,
        "engine": {
            "now": engine.now,
            "dispatched": engine.dispatched_events,
            "pending": [_event_to_dict(e) for e in engine.pending_snapshot()],
        },
        "tasks": [_task_to_dict(t) for t in system.tasks.values()],
        "machines": [
            {"id": m.id, "running_task": m.running_task,
             "pending": m.pending_tasks, "busy_time": m.busy_time,
             "started_tasks": m.started_tasks}
            for m in system.machines],
        "batch_queue": [[task_id, system.tasks[task_id].deadline]
                        for task_id in system.batch_queue.snapshot()],
        "counters": {
            "num_mapping_events": system.num_mapping_events,
            "num_proactive_drops": system.num_proactive_drops,
            "num_reactive_queue_drops": system.num_reactive_queue_drops,
            "num_batch_expired_drops": system.num_batch_expired_drops,
        },
        "perf": {f.name: getattr(system.perf, f.name)
                 for f in dataclass_fields(PerfStats)},
        "rng_state": system.rng.bit_generator.state,
        "live": service.live.state_dict(),
    }
    if system.fault_injector is not None:
        # Conditional key: fault-free snapshots stay byte-identical to the
        # pre-fault layout.  The onset stream itself is a pure function of
        # the fault seed, so its position (``consumed``) plus the pending
        # onset already in the engine section fully determine the future.
        payload["faults"] = {
            "consumed": system.fault_injector.consumed,
            "down": sorted(system._down),
            "slowdowns": [
                [token, list(scope), factor]
                for token, (scope, factor) in system._slowdowns.items()],
            "partitions": [
                [token, list(ids), started]
                for token, (ids, started) in system._partitions.items()],
            "cancelled_completions": [
                [task_id, machine_id, time, count]
                for (task_id, machine_id, time), count
                in system._cancelled_completions.items()],
            "counters": {
                "num_crashes": system.num_crashes,
                "num_requeued_tasks": system.num_requeued_tasks,
                "num_crash_lost": system.num_crash_lost,
                "partition_time": system.partition_time,
            },
        }
    if system._bound_topology is not None:
        # Conditional key: topology-free snapshots stay byte-identical to
        # the pre-topology layout.  Transfer scheduling is deterministic
        # (no RNG), so the shared-link clocks plus the counters are the
        # complete network state.
        payload["topology"] = {
            "link_busy": [[group, until]
                          for group, until
                          in sorted(system._link_busy.items())],
            "counters": {
                "num_transfers": system.num_transfers,
                "transfer_time": system.transfer_time_total,
                "transfer_wait": system.transfer_wait_total,
            },
        }
    return payload


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------

def restore_state(payload: Mapping[str, object],
                  on_window: Optional[Callable[["WindowStats"], None]] = None,
                  chunk_tasks: int = 512) -> "StreamingSimulation":
    """Rebuild a live service from :func:`snapshot_state` output (a
    non-object payload or section, a non-list section, a missing key or
    an invalid RNG state raises ``ValueError`` naming its path)."""
    from .service import _require_mapping

    _require_mapping(payload, "snapshot payload")
    try:
        return _restore(payload, on_window, chunk_tasks)
    except KeyError as exc:
        if type(exc) is not KeyError:  # registry typos carry their own hint
            raise
        raise ValueError(f"snapshot is missing key {exc.args[0]!r}") from None


def _restore(payload: Mapping[str, object],
             on_window: Optional[Callable[["WindowStats"], None]],
             chunk_tasks: int) -> "StreamingSimulation":
    from .service import (StreamingSimulation, StreamSpec, _require_list,
                          _require_mapping)

    marker = payload.get("format")
    if marker != SNAPSHOT_FORMAT:
        raise ValueError(f"not a stream snapshot (format {marker!r}; "
                         f"expected {SNAPSHOT_FORMAT!r})")
    for key in ("spec", "engine", "counters", "perf", "rng_state", "live"):
        _require_mapping(payload[key], f"snapshot {key}")
    for key in ("tasks", "machines", "batch_queue"):
        _require_list(payload[key], f"snapshot {key}")
    _require_list(payload["engine"]["pending"], "snapshot engine.pending")
    spec = StreamSpec.from_dict(payload["spec"])
    service = StreamingSimulation(spec, on_window=on_window,
                                  chunk_tasks=chunk_tasks)
    system = service.system

    # Traffic position: regenerate and discard the already-consumed prefix
    # of the (seed-determined) stream.
    service._fast_forward_traffic(int(payload["traffic_consumed"]))
    service._next_task_id = int(payload["next_task_id"])
    service._horizon = int(payload["horizon"])

    # Tasks, machines and the batch queue (FIFO order preserved so expiry
    # tie-breaking reproduces exactly).
    system.tasks.clear()
    for i, entry in enumerate(payload["tasks"]):
        _require_mapping(entry, f"snapshot tasks[{i}]")
        task = _task_from_dict(entry)
        system.tasks[task.id] = task
    machines_by_id = {m.id: m for m in system.machines}
    for i, entry in enumerate(payload["machines"]):
        _require_mapping(entry, f"snapshot machines[{i}]")
        _require_list(entry["pending"], f"snapshot machines[{i}].pending")
        machine = machines_by_id.get(int(entry["id"]))
        if machine is None:
            raise ValueError(f"snapshot references unknown machine "
                             f"{entry['id']}")
        machine.restore_runtime_state(
            running_task=entry["running_task"],
            pending=list(entry["pending"]),
            busy_time=int(entry["busy_time"]),
            started_tasks=int(entry["started_tasks"]))
    for i, pair in enumerate(payload["batch_queue"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"snapshot batch_queue[{i}] must be a "
                             f"[task_id, deadline] pair, got {pair!r}")
        task_id, deadline = pair
        system.batch_queue.push(int(task_id), int(deadline))

    counters = payload["counters"]
    system.num_mapping_events = int(counters["num_mapping_events"])
    system.num_proactive_drops = int(counters["num_proactive_drops"])
    system.num_reactive_queue_drops = int(counters["num_reactive_queue_drops"])
    system.num_batch_expired_drops = int(counters["num_batch_expired_drops"])

    restored = PerfStats.from_dict(dict(payload["perf"]))
    for f in dataclass_fields(PerfStats):
        setattr(system.perf, f.name, getattr(restored, f.name))

    # RNG: the PCG64 state dict round-trips through JSON exactly (plain
    # Python integers), so execution sampling continues draw-for-draw.
    state = dict(payload["rng_state"])
    try:
        if isinstance(state.get("state"), Mapping):
            state["state"] = {k: int(v) for k, v in state["state"].items()}
        system.rng.bit_generator.state = state
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"snapshot rng_state is invalid: {exc}") from None

    # Engine: replay the pending events (already in dispatch order) into
    # the fresh heap; new sequence numbers preserve the tie-breaking.
    engine_state = payload["engine"]
    pending_events = []
    for i, entry in enumerate(engine_state["pending"]):
        _require_mapping(entry, f"snapshot engine.pending[{i}]")
        pending_events.append(_event_from_dict(entry))
    system.engine.load_state(
        now=int(engine_state["now"]),
        dispatched=int(engine_state["dispatched"]),
        events=pending_events)

    # Open-task accounting (terminal transitions decrement it; the restore
    # path bypassed submit()).
    system._open_tasks = sum(1 for t in system.tasks.values()
                             if not t.status.is_terminal)

    faults = payload.get("faults")
    if faults is not None:
        if system.fault_injector is None:
            raise ValueError("snapshot carries fault state but its spec "
                             "has no fault process")
        system._down = {int(m) for m in faults["down"]}
        system._slowdowns = {
            int(token): (tuple(int(m) for m in scope), float(factor))
            for token, scope, factor in faults["slowdowns"]}
        system._partitions = {
            int(token): (tuple(int(m) for m in ids), int(started))
            for token, ids, started in faults["partitions"]}
        system._cancelled_completions = {
            (int(task_id), int(machine_id), int(time)): int(count)
            for task_id, machine_id, time, count
            in faults["cancelled_completions"]}
        counters = faults["counters"]
        system.num_crashes = int(counters["num_crashes"])
        system.num_requeued_tasks = int(counters["num_requeued_tasks"])
        system.num_crash_lost = int(counters["num_crash_lost"])
        system.partition_time = int(counters["partition_time"])
        # Stream position: replay the seeded onset stream; the pending
        # onset itself was restored with the engine events above.
        system.fault_injector.fast_forward(int(faults["consumed"]))
        # A crash cancels the running task's completion at
        # start_time + sampled duration; rebuild the sampled durations of
        # in-flight runs from their pending completion events.  A key with
        # more pending events than cancellations has at least one *real*
        # completion (coincident re-finishes share the key, and therefore
        # the derived duration); keys fully covered by cancellations are
        # stale and would derive the wrong duration from the new start.
        pending_counts: Dict[tuple, int] = {}
        for event in pending_events:
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

    topology = payload.get("topology")
    if topology is not None:
        if system._bound_topology is None:
            raise ValueError("snapshot carries topology state but its spec "
                             "binds no effective topology")
        system._link_busy = {str(group): int(until)
                             for group, until in topology["link_busy"]}
        counters = topology["counters"]
        system.num_transfers = int(counters["num_transfers"])
        system.transfer_time_total = int(counters["transfer_time"])
        system.transfer_wait_total = int(counters["transfer_wait"])

    service.live.load_state(payload["live"])
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
