"""The benchmark's five workloads, run inside a fresh child process.

A workload function takes the seed, a scratch directory, a :class:`Probe`
and size arguments whose defaults are the benchmark's sizes (the tests pass
smaller ones).  It builds every input from the seed, calls
``probe.ready()`` when set-up ends, runs its simulation section, checks the
outputs it can check on its own, and returns an :class:`Outcome`.  Every
workload runs the default engine (incremental, vector scoring, exact
numerics), because that is what users run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.api.plan import ExperimentPlan
from repro.experiments.runner import (TrialSpec, build_scenario_for_spec,
                                      build_system_for_trial)
from repro.metrics import collector
from repro.metrics.collector import trial_metrics_to_dict
from repro.sim.fault_events import FAULT_SEED_OFFSET
from repro.sim.perf import PerfStats
from repro.sim.task import TaskStatus
from repro.stream.service import (EXECUTION_SEED_OFFSET, StreamingSimulation,
                                  StreamSpec)

HERE = os.path.dirname(os.path.abspath(__file__))

#: Paper defaults of the proactive dropping heuristic (beta, eta).
HEURISTIC = (("beta", 1.0), ("eta", 2))

#: Per batch workload: the ``TrialSpec`` fields beyond the shared
#: ``spec`` 40k scenario.
BATCH = {
    "batch-drop": dict(gamma=1.0, mapper_name="PAM", dropper_name="heuristic",
                       dropper_params=HEURISTIC, batch_window=32),
    "batch-map": dict(gamma=5.0, mapper_name="PAM", dropper_name="react",
                      batch_window=64),
    "batch-churn": dict(
        gamma=1.0, mapper_name="MM", dropper_name="heuristic",
        dropper_params=HEURISTIC, batch_window=32,
        faults_name="crash-restart",
        fault_params=(("mtbf", 300.0), ("repair_mean", 80.0)),
        topology_name="tiered-edge-cloud",
        topology_params=(("bandwidth", 48), ("latency", 2),
                         ("task_bytes", 192))),
}

#: Simulated time advanced by one stream tick (one ``run_for`` call).
TICK = 500
#: A stream checkpoint is taken after every tick ``i`` with
#: ``i % CHECKPOINT_EVERY == CHECKPOINT_PHASE``, so the last one lies a few
#: ticks before the end and the restore round-trip re-simulates them.
CHECKPOINT_EVERY = 10
CHECKPOINT_PHASE = 4

PLAN_TOML = os.path.join(HERE, "plan_sweep.toml")


class SetupDone(Exception):
    """Raised by :meth:`Probe.ready` in a set-up-only child."""


class Probe:
    """The child's hooks into a workload: the ready mark and tracing."""

    def __init__(self, setup_only: bool = False,
                 instrument: Optional[Callable[[Any], None]] = None):
        self.setup_only = setup_only
        self.instrument = instrument or (lambda system: None)
        self.ready_at: Optional[float] = None

    def ready(self) -> None:
        """Mark the end of set-up (imports, scenario, system built)."""
        self.ready_at = time.perf_counter()
        if self.setup_only:
            raise SetupDone


@dataclass
class Outcome:
    """What one run of a workload produced."""

    #: Wall time of the simulation section.
    sim_s: float
    #: Tasks that reached a terminal state in it.
    tasks: int
    robustness_pct: float
    #: sha256 of the workload's outputs (perf counters excluded).
    digest: str
    #: Failed output checks; empty when the outputs are consistent.
    problems: List[str]
    #: ``PerfStats`` fields and result counts, for the per-layer metrics.
    counters: Dict[str, float]
    ticks_s: List[float] = field(default_factory=list)
    checkpoints_s: List[float] = field(default_factory=list)


def digest(payload: Any) -> str:
    """sha256 of a JSON payload (floats serialise exactly via ``repr``)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trial_payload(metrics: Any) -> Dict[str, Any]:
    payload = trial_metrics_to_dict(metrics)
    payload.pop("perf", None)
    return payload


def _counters(perf: PerfStats, **extra: float) -> Dict[str, float]:
    counters: Dict[str, float] = {
        f.name: getattr(perf, f.name) for f in dataclasses.fields(perf)}
    counters.update(proactive_drops=0, transfers=0, transfer_wait=0,
                    crashes=0, requeued=0, snapshot_bytes=0, cell_p50_s=0.0)
    counters.update(extra)
    return counters


def _in_flight_problems(system: Any) -> List[str]:
    """Task conservation: every submitted task is terminal or in flight,
    and the statuses agree with the queues that hold the tasks."""
    status = {s: 0 for s in TaskStatus}
    for task in system.tasks.values():
        status[task.status] += 1
    problems = []
    if status[TaskStatus.IN_BATCH] != len(system.batch_queue):
        problems.append(f"{status[TaskStatus.IN_BATCH]} tasks in batch, "
                        f"batch queue holds {len(system.batch_queue)}")
    on_machines = sum(m.occupancy for m in system.machines)
    if status[TaskStatus.QUEUED] + status[TaskStatus.RUNNING] != on_machines:
        problems.append(f"{status[TaskStatus.QUEUED]} queued + "
                        f"{status[TaskStatus.RUNNING]} running tasks, "
                        f"machines hold {on_machines}")
    return problems


def _terminal(system: Any) -> int:
    return sum(task.status.is_terminal for task in system.tasks.values())


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_batch(name: str, seed: int, workdir: str, probe: Probe,
              scale: float = 0.1) -> Outcome:
    """One ``spec`` 40k trial (4000 tasks at scale 0.1), as ``run_trial``
    runs it, with the simulation section split out."""
    spec = TrialSpec(scenario_name="spec", level="40k", scale=scale,
                     queue_capacity=6, seed=seed, **BATCH[name])
    scenario = build_scenario_for_spec(spec)
    fault_rng = (np.random.default_rng(seed + FAULT_SEED_OFFSET)
                 if spec.faults_name != "none" else None)
    system = build_system_for_trial(
        scenario, spec, np.random.default_rng(seed + EXECUTION_SEED_OFFSET),
        fault_rng=fault_rng)
    probe.instrument(system)
    probe.ready()
    start = time.perf_counter()
    result = system.run()
    sim_s = time.perf_counter() - start
    # Called through its module so a traced child sees the patched name.
    metrics = collector.collect_trial_metrics(result)
    problems = _in_flight_problems(system)
    open_tasks = len(result.tasks) - _terminal(system)
    if open_tasks:
        problems.append(f"{open_tasks} tasks not terminal after the run")
    return Outcome(
        sim_s=sim_s, tasks=_terminal(system),
        robustness_pct=metrics.robustness_pct,
        digest=digest(_trial_payload(metrics)), problems=problems,
        counters=_counters(result.perf,
                           proactive_drops=result.num_proactive_drops,
                           transfers=result.num_transfers,
                           transfer_wait=result.transfer_wait,
                           crashes=result.num_crashes,
                           requeued=result.num_requeued_tasks))


def _stream_outputs(service: StreamingSimulation) -> Dict[str, Any]:
    timeline = service.timeline().to_dict()
    for window in timeline["windows"]:
        window.pop("perf", None)
    return {"metrics": _trial_payload(service.metrics()),
            "timeline": timeline}


def run_stream(name: str, seed: int, workdir: str, probe: Probe,
               ticks: int = 200, tick: int = TICK) -> Outcome:
    """The service path: ``ticks`` calls of ``run_for(tick)`` with a JSON
    checkpoint every ``CHECKPOINT_EVERY`` ticks, then a restore of the last
    checkpoint run to the same horizon, which must reproduce the outputs."""
    spec = StreamSpec(traffic_name="steady", oversubscription=1.55,
                      mapper_name="PAM", dropper_name="heuristic",
                      dropper_params=HEURISTIC, seed=seed)
    service = StreamingSimulation(spec)
    probe.instrument(service.system)
    probe.ready()
    path = os.path.join(workdir, "snapshot.json")
    ticks_s: List[float] = []
    checkpoints_s: List[float] = []
    sizes: List[int] = []
    clock = time.perf_counter
    for i in range(ticks):
        start = clock()
        service.run_for(tick)
        ticks_s.append(clock() - start)
        if i % CHECKPOINT_EVERY == CHECKPOINT_PHASE:
            start = clock()
            payload = service.snapshot()
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            checkpoints_s.append(clock() - start)
            sizes.append(os.path.getsize(path))
    outputs = _stream_outputs(service)
    problems = _in_flight_problems(service.system)
    perf = PerfStats().merge(service.system.perf)
    if sizes:
        with open(path, encoding="utf-8") as handle:
            restored = StreamingSimulation.restore(json.load(handle))
        probe.instrument(restored.system)
        restored.run_until(service.horizon)
        perf.merge(restored.system.perf)
        if _stream_outputs(restored) != outputs:
            problems.append("restored stream diverged from the original")
    return Outcome(
        sim_s=sum(ticks_s), tasks=_terminal(service.system),
        robustness_pct=service.metrics().robustness_pct,
        digest=digest(outputs), problems=problems,
        counters=_counters(
            perf, proactive_drops=service.system.num_proactive_drops,
            snapshot_bytes=float(np.median(sizes)) if sizes else 0),
        ticks_s=ticks_s, checkpoints_s=checkpoints_s)


def run_plan(name: str, seed: int, workdir: str, probe: Probe,
             scale: float = 0.02, trials: int = 3) -> Outcome:
    """The plan file in ``plan_sweep.toml`` run through ``run_spooled`` on
    ``min(2, nproc)`` workers, spooling to a fresh JSONL file."""
    plan = dataclasses.replace(
        ExperimentPlan.from_file(PLAN_TOML), base_seed=seed, scales=(scale,),
        trials=trials, n_jobs=min(2, len(os.sched_getaffinity(0))))
    probe.ready()
    spool = os.path.join(workdir, "spool.jsonl")
    if os.path.exists(spool):
        os.remove(spool)  # an existing spool would be resumed, not re-run
    start = time.perf_counter()
    sweep = plan.run_spooled(spool)
    sim_s = time.perf_counter() - start
    cells = [[run.label, [_trial_payload(t) for t in run.trials]]
             for run in sweep.runs]
    trials = [t for run in sweep.runs for t in run.trials]
    problems = []
    if len(cells) != plan.num_cells():
        problems.append(f"{len(cells)} of {plan.num_cells()} cells ran")
    for run in sweep.runs:
        for trial in run.trials:
            report = trial.robustness
            if (report.on_time + report.completed_late + report.total_drops
                    != report.measured_tasks):
                problems.append(f"{run.label}: measured tasks not terminal")
    with open(spool, encoding="utf-8") as handle:
        lines = sum(1 for _ in handle)
    if lines != 1 + len(cells):
        problems.append(f"spool holds {lines} lines for {len(cells)} cells")
    cell_s = [sum(t.perf.wall_time_s for t in run.trials)
              for run in sweep.runs]
    return Outcome(
        sim_s=sim_s, tasks=sum(t.robustness.total_tasks for t in trials),
        robustness_pct=float(np.mean([t.robustness_pct for t in trials])),
        digest=digest(cells), problems=problems,
        counters=_counters(
            PerfStats.merged(t.perf for t in trials),
            proactive_drops=sum(t.drops.proactive for t in trials),
            cell_p50_s=float(np.median(cell_s))))


#: Workload name -> function.
FUNCTIONS: Dict[str, Callable[..., Outcome]] = {
    "batch-drop": run_batch,
    "batch-map": run_batch,
    "batch-churn": run_batch,
    "stream-steady": run_stream,
    "plan-sweep": run_plan,
}
