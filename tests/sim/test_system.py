"""Integration tests of the HC-system simulator with controlled workloads."""

import numpy as np
import pytest

from repro.api import Simulation
from repro.core.dropping import (DropDecision, DroppingPolicy,
                                 NoProactiveDropping,
                                 ProactiveHeuristicDropping, ThresholdDropping)
from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.experiments.runner import (TrialSpec, build_scenario_for_spec,
                                      build_system_for_trial)
from repro.mapping import FCFS, MinMin, PAM
from repro.sim.machine import Machine, MachineType
from repro.sim.perf import PerfStats
from repro.sim.system import HCSystem, SimulationResult, SystemConfig
from repro.sim.task import Task, TaskStatus, TaskType
from repro.sim.trace import InMemoryTrace


def deterministic_pet(exec_time=10, n_task_types=1, n_machine_types=1):
    """PET matrix of delta PMFs (fully deterministic execution)."""
    entries = {(i, j): PMF.delta(exec_time)
               for i in range(n_task_types) for j in range(n_machine_types)}
    return PETMatrix(tuple(f"t{i}" for i in range(n_task_types)),
                     tuple(f"m{j}" for j in range(n_machine_types)),
                     entries)


def build_simple_system(pet=None, n_machines=1, mapper=None, dropper=None,
                        queue_capacity=6, trace=None):
    pet = pet if pet is not None else deterministic_pet()
    machine_types = [MachineType(id=j, name=f"m{j}", price_per_hour=1.0)
                     for j in range(pet.num_machine_types)]
    machines = [Machine(machine_id=k, type_id=k % pet.num_machine_types,
                        queue_capacity=queue_capacity)
                for k in range(n_machines)]
    task_types = [TaskType(id=i, name=f"t{i}") for i in range(pet.num_task_types)]
    return HCSystem(machine_types=machine_types, machines=machines,
                    task_types=task_types, pet=pet,
                    mapper=mapper if mapper is not None else FCFS(),
                    dropper=dropper,
                    config=SystemConfig(queue_capacity=queue_capacity),
                    rng=np.random.default_rng(0),
                    trace=trace)


class TestBasicExecution:
    def test_single_task_completes_on_time(self):
        system = build_simple_system()
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=100)])
        result = system.run()
        task = result.tasks[0]
        assert task.status is TaskStatus.COMPLETED_ON_TIME
        assert task.start_time == 0
        assert task.finish_time == 10
        assert result.makespan == 10

    def test_task_finishing_exactly_at_deadline_is_late(self):
        system = build_simple_system()
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=10)])
        result = system.run()
        assert result.tasks[0].status is TaskStatus.COMPLETED_LATE

    def test_tasks_execute_fcfs_on_one_machine(self):
        system = build_simple_system()
        system.submit([Task(id=i, type_id=0, arrival=0, deadline=1000)
                       for i in range(3)])
        result = system.run()
        finishes = [result.tasks[i].finish_time for i in range(3)]
        assert finishes == [10, 20, 30]
        assert all(result.tasks[i].succeeded for i in range(3))

    def test_busy_time_matches_executed_work(self):
        system = build_simple_system()
        system.submit([Task(id=i, type_id=0, arrival=0, deadline=1000)
                       for i in range(4)])
        result = system.run()
        assert result.machines[0].busy_time == 40

    def test_parallel_machines_share_load(self):
        system = build_simple_system(n_machines=2)
        system.submit([Task(id=i, type_id=0, arrival=0, deadline=1000)
                       for i in range(4)])
        result = system.run()
        assert result.makespan == 20
        started = [m.started_tasks for m in result.machines]
        assert sorted(started) == [2, 2]

    def test_duplicate_task_ids_rejected(self):
        system = build_simple_system()
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=100)])
        with pytest.raises(ValueError):
            system.submit([Task(id=0, type_id=0, arrival=5, deadline=100)])

    def test_unknown_task_type_rejected(self):
        system = build_simple_system()
        with pytest.raises(ValueError):
            system.submit([Task(id=0, type_id=5, arrival=0, deadline=100)])


class TestReactiveDropping:
    def test_pending_task_dropped_after_deadline_passes(self):
        # One machine, two tasks: the first runs 10 units; the second's
        # deadline (5) passes while it waits, so it is dropped reactively.
        system = build_simple_system()
        system.submit([
            Task(id=0, type_id=0, arrival=0, deadline=100),
            Task(id=1, type_id=0, arrival=0, deadline=5),
        ])
        result = system.run()
        assert result.tasks[0].succeeded
        assert result.tasks[1].status in (TaskStatus.DROPPED_REACTIVE,
                                          TaskStatus.DROPPED_EXPIRED_BATCH)
        assert result.total_drops == 1

    def test_batch_expiry_when_queues_full(self):
        # Queue capacity 1 forces later tasks to wait unmapped; their
        # deadlines expire in the batch queue.
        system = build_simple_system(queue_capacity=1)
        tasks = [Task(id=0, type_id=0, arrival=0, deadline=100)]
        tasks += [Task(id=i, type_id=0, arrival=0, deadline=8) for i in range(1, 4)]
        system.submit(tasks)
        result = system.run()
        statuses = [result.tasks[i].status for i in range(1, 4)]
        assert all(s is TaskStatus.DROPPED_EXPIRED_BATCH for s in statuses)
        assert result.num_batch_expired_drops == 3

    def test_no_batch_expiry_when_disabled(self):
        machine_types = [MachineType(id=0, name="m0")]
        machines = [Machine(machine_id=0, type_id=0, queue_capacity=1)]
        task_types = [TaskType(id=0, name="t0")]
        system = HCSystem(machine_types=machine_types, machines=machines,
                          task_types=task_types, pet=deterministic_pet(),
                          mapper=FCFS(),
                          config=SystemConfig(queue_capacity=1,
                                              drop_expired_batch=False),
                          rng=np.random.default_rng(0))
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=100),
                       Task(id=1, type_id=0, arrival=0, deadline=5)])
        result = system.run()
        # The expired task is eventually mapped and dropped reactively (or
        # completes late); it is never counted as a batch expiry.
        assert result.num_batch_expired_drops == 0


class TestProactiveDropping:
    def test_heuristic_drops_hopeless_pending_task(self):
        # Machine runs task 0 (10 units).  Task 1 is long (10) with a tight
        # deadline; task 2 is feasible only if task 1 is dropped.
        pet = PETMatrix(("short", "long"), ("m0",),
                        {(0, 0): PMF.delta(10), (1, 0): PMF.delta(30)})
        machine_types = [MachineType(id=0, name="m0")]
        machines = [Machine(machine_id=0, type_id=0, queue_capacity=6)]
        task_types = [TaskType(id=0, name="short"), TaskType(id=1, name="long")]
        system = HCSystem(machine_types=machine_types, machines=machines,
                          task_types=task_types, pet=pet, mapper=FCFS(),
                          dropper=ProactiveHeuristicDropping(beta=1.0, eta=2),
                          config=SystemConfig(),
                          rng=np.random.default_rng(0))
        system.submit([
            Task(id=0, type_id=0, arrival=0, deadline=1000),   # runs first
            Task(id=1, type_id=1, arrival=1, deadline=35),      # hopeless (10+30)
            Task(id=2, type_id=0, arrival=2, deadline=30),      # needs task 1 gone
        ])
        result = system.run()
        assert result.tasks[1].status is TaskStatus.DROPPED_PROACTIVE
        assert result.tasks[2].succeeded
        assert result.num_proactive_drops == 1

    def test_proactive_dropping_never_touches_running_tasks(self):
        system = build_simple_system(dropper=ProactiveHeuristicDropping())
        system.submit([Task(id=i, type_id=0, arrival=0, deadline=2000)
                       for i in range(5)])
        result = system.run()
        assert all(result.tasks[i].completed for i in range(5))

    def test_threshold_dropper_works_in_system(self):
        system = build_simple_system(dropper=ThresholdDropping(threshold=0.5))
        system.submit([Task(id=i, type_id=0, arrival=0, deadline=15 + 10 * i)
                       for i in range(4)])
        result = system.run()
        assert len(result.tasks) == 4
        assert result.makespan > 0


class TestAccountingInvariants:
    def run_oversubscribed(self, dropper=None, seed=3):
        exec_pmf = PMF.from_impulses([8, 16], [0.5, 0.5])
        pet = PETMatrix(("t0",), ("m0", "m1"),
                        {(0, 0): exec_pmf, (0, 1): PMF.from_impulses([10, 20], [0.5, 0.5])})
        machine_types = [MachineType(id=0, name="m0"), MachineType(id=1, name="m1")]
        machines = [Machine(0, 0, 3), Machine(1, 1, 3)]
        task_types = [TaskType(id=0, name="t0")]
        system = HCSystem(machine_types=machine_types, machines=machines,
                          task_types=task_types, pet=pet, mapper=MinMin(),
                          dropper=dropper, config=SystemConfig(queue_capacity=3),
                          rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.integers(0, 150, size=60))
        system.submit([Task(id=i, type_id=0, arrival=int(a), deadline=int(a) + 30)
                       for i, a in enumerate(arrivals)])
        return system.run()

    def test_every_task_reaches_a_terminal_state(self):
        result = self.run_oversubscribed(dropper=ProactiveHeuristicDropping())
        for task in result.tasks.values():
            assert task.status.is_terminal, f"task {task.id} ended as {task.status}"

    def test_status_counts_are_consistent(self):
        result = self.run_oversubscribed(dropper=ProactiveHeuristicDropping())
        counts = result.tasks_by_status()
        assert sum(counts.values()) == len(result.tasks)
        assert counts.get(TaskStatus.DROPPED_PROACTIVE, 0) == result.num_proactive_drops
        assert counts.get(TaskStatus.DROPPED_REACTIVE, 0) == result.num_reactive_queue_drops
        assert counts.get(TaskStatus.DROPPED_EXPIRED_BATCH, 0) == result.num_batch_expired_drops

    def test_completed_tasks_have_consistent_timestamps(self):
        result = self.run_oversubscribed(dropper=ProactiveHeuristicDropping())
        for task in result.tasks.values():
            if task.completed:
                assert task.arrival <= task.queued_time <= task.start_time
                assert task.start_time < task.finish_time <= result.makespan
            if task.succeeded:
                assert task.finish_time < task.deadline

    def test_busy_time_equals_sum_of_executed_durations(self):
        result = self.run_oversubscribed(dropper=ProactiveHeuristicDropping())
        executed = sum(t.finish_time - t.start_time for t in result.tasks.values()
                       if t.completed)
        assert sum(m.busy_time for m in result.machines) == executed

    def test_reactive_only_baseline_never_proactively_drops(self):
        result = self.run_oversubscribed(dropper=NoProactiveDropping())
        assert result.num_proactive_drops == 0

    def test_proactive_dropping_does_not_reduce_on_time_count(self):
        """On this oversubscribed workload the dropping mechanism should help
        (or at least not hurt) the number of on-time completions."""
        baseline = self.run_oversubscribed(dropper=NoProactiveDropping())
        improved = self.run_oversubscribed(dropper=ProactiveHeuristicDropping())
        count = lambda r: sum(1 for t in r.tasks.values() if t.succeeded)
        assert count(improved) >= count(baseline)


class TestDispatchTimeReactiveDrop:
    def test_mapped_expired_task_dropped_at_dispatch(self):
        # With batch expiry disabled and a single-slot queue, the expired
        # task is only mapped once the machine drains -- in the *same*
        # mapping event in which the machine is idle -- so the deadline
        # check in _dispatch (not the pending-queue scan) must catch it.
        system = build_simple_system(queue_capacity=1)
        system.config = SystemConfig(queue_capacity=1, drop_expired_batch=False)
        system.submit([
            Task(id=0, type_id=0, arrival=0, deadline=100),  # runs 0-10
            Task(id=1, type_id=0, arrival=3, deadline=8),    # expires unmapped
        ])
        result = system.run()
        dropped = result.tasks[1]
        assert dropped.status is TaskStatus.DROPPED_REACTIVE
        # The drop happened at dispatch time: the task was mapped (it left
        # the batch queue) but never started executing.
        assert dropped.queued_time == 10
        assert dropped.start_time is None
        assert dropped.drop_time == 10
        assert result.num_reactive_queue_drops == 1
        assert result.num_batch_expired_drops == 0
        assert result.tasks[0].succeeded

    def test_machine_continues_past_dropped_heads(self):
        # Unit-level: two expired heads ahead of a feasible task must both
        # be dropped inside one _dispatch call, and the feasible task must
        # start on the same machine in the same event.
        system = build_simple_system(queue_capacity=4)
        machine = system.machines[0]
        tasks = [Task(id=0, type_id=0, arrival=0, deadline=5),
                 Task(id=1, type_id=0, arrival=0, deadline=6),
                 Task(id=2, type_id=0, arrival=0, deadline=200)]
        for task in tasks:
            system.tasks[task.id] = task
            task.mark_in_batch()
            task.mark_queued(machine.id, 0)
            machine.enqueue(task.id)
        system._dispatch(10)
        assert system.tasks[0].status is TaskStatus.DROPPED_REACTIVE
        assert system.tasks[1].status is TaskStatus.DROPPED_REACTIVE
        assert system.num_reactive_queue_drops == 2
        assert machine.running_task == 2
        assert system.tasks[2].status is TaskStatus.RUNNING
        assert system.tasks[2].start_time == 10


class IndexDropper(DroppingPolicy):
    """Stub policy that requests a fixed set of drop indices once."""

    name = "stub-index"
    memoizable = False  # stateful by design

    def __init__(self, indices, when_queue_length):
        self.indices = tuple(indices)
        self.when_queue_length = int(when_queue_length)
        self.fired = False

    def evaluate_queue(self, view):
        if not self.fired and view.queue_length == self.when_queue_length:
            self.fired = True
            return DropDecision(drop_indices=self.indices)
        return DropDecision(drop_indices=())


class TestProactiveDropIndexMapping:
    def test_non_contiguous_drop_indices_remove_correct_tasks(self):
        # Queue [1, 2, 3] behind the running task 0; dropping indices {0, 2}
        # must remove tasks 1 and 3 and leave task 2 untouched.
        dropper = IndexDropper(indices=(0, 2), when_queue_length=3)
        system = build_simple_system(queue_capacity=6, dropper=dropper)
        system.submit([Task(id=i, type_id=0, arrival=i, deadline=1000)
                       for i in range(4)])
        result = system.run()
        assert result.tasks[1].status is TaskStatus.DROPPED_PROACTIVE
        assert result.tasks[3].status is TaskStatus.DROPPED_PROACTIVE
        assert result.tasks[2].completed
        assert result.num_proactive_drops == 2

    def test_descending_indices_equivalent(self):
        # DropDecision sorts indices; passing them descending must behave
        # identically because removal is by task id, not by live position.
        dropper = IndexDropper(indices=(2, 0), when_queue_length=3)
        system = build_simple_system(queue_capacity=6, dropper=dropper)
        system.submit([Task(id=i, type_id=0, arrival=i, deadline=1000)
                       for i in range(4)])
        result = system.run()
        assert result.tasks[1].status is TaskStatus.DROPPED_PROACTIVE
        assert result.tasks[3].status is TaskStatus.DROPPED_PROACTIVE
        assert result.tasks[2].completed


class TestRunUntilHorizon:
    def test_makespan_reflects_simulated_horizon(self):
        system = build_simple_system()
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=100)])
        result = system.run(until=500)
        assert result.tasks[0].finish_time == 10
        assert result.makespan == 500

    def test_unbounded_run_keeps_event_makespan(self):
        system = build_simple_system()
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=100)])
        assert system.run().makespan == 10


class TestPerfStats:
    def test_counters_populated(self):
        system = build_simple_system()
        system.submit([Task(id=i, type_id=0, arrival=i, deadline=1000)
                       for i in range(4)])
        result = system.run()
        perf = result.perf
        assert perf is not None
        assert perf.mapping_events == result.num_mapping_events
        assert perf.events_dispatched == result.num_dispatched_events
        assert perf.pmf_folds > 0
        assert perf.wall_time_s > 0.0

    def test_naive_mode_reports_no_cache_activity(self):
        system = build_simple_system()
        system.config = SystemConfig(incremental=False)
        system.submit([Task(id=i, type_id=0, arrival=i, deadline=1000)
                       for i in range(4)])
        result = system.run()
        assert result.perf.tail_cache_hits == 0
        assert result.perf.tail_cache_extends == 0
        assert result.perf.pmf_folds > 0

    #: ``PerfStats.to_dict()`` of a PAM+heuristic run written while PMFs
    #: were still hash-consed; spools and snapshots carry such payloads.
    HASH_CONSED_PAYLOAD = {
        "events_dispatched": 120, "mapping_events": 120, "pmf_folds": 138,
        "tail_cache_hits": 46, "tail_cache_extends": 0,
        "tail_cache_rebuilds": 126, "drop_cache_hits": 135,
        "drop_evaluations": 243, "batch_expired": 0, "interned": 288,
        "intern_hits": 53, "fold_memo_hits": 510, "scratch_reuses": 227,
        "plane_evals": 540, "plane_rounds": 60,
        "wall_time_s": 0.0804038969999965,
        "tail_cache_hit_rate": 0.26744186046511625,
        "intern_hit_rate": 0.15542521994134897}

    @pytest.fixture(scope="class")
    def heuristic_perf(self):
        result = (Simulation.scenario("spec", level="30k").scale(0.002)
                  .mapper("PAM").dropper("heuristic")
                  .trials(1, base_seed=42).run())
        return result.perf

    def test_hash_consed_payload_still_loads(self):
        perf = PerfStats.from_dict(self.HASH_CONSED_PAYLOAD)
        assert (perf.interned, perf.intern_hits, perf.scratch_reuses) == (
            288, 53, 227)
        assert perf.to_dict() == self.HASH_CONSED_PAYLOAD

    def test_retired_counters_read_zero(self, heuristic_perf):
        payload = heuristic_perf.to_dict()
        for key in ("interned", "intern_hits", "scratch_reuses",
                    "intern_hit_rate"):
            assert payload[key] == 0

    def test_identity_memos_still_hit(self, heuristic_perf):
        """The fold memo and the drop-decision memo key on PMF identity;
        a PAM+heuristic run must keep hitting both."""
        assert heuristic_perf.fold_memo_hits > 0
        assert heuristic_perf.drop_cache_hits > 0


class TestOneChainPerMachine:
    """The dropper reads the tail cache's chain, and the folder's memos
    hold no PMF past the mapping event that made it."""

    #: ``ChainFolder`` tables that hold chain or appended PMFs.
    PMF_TABLES = ("_memo", "_chance_memo", "_mean_memo",
                  "_append_chance_memo", "_append_mean_memo", "_prev_cums",
                  "_fft_memo")

    def test_memos_are_event_scoped_and_the_chain_is_shared(self):
        spec = TrialSpec(scenario_name="spec", level="40k", scale=0.002,
                         gamma=1.0, queue_capacity=6, seed=42,
                         mapper_name="PAM", dropper_name="heuristic")
        system = build_system_for_trial(build_scenario_for_spec(spec), spec,
                                        np.random.default_rng(spec.seed))
        folder = system._folder
        leftovers = []
        reactive = system._reactive_drop_queues

        def first_step(now):
            # The first step of every mapping event: start_event ran.
            leftovers.extend((now, name) for name in self.PMF_TABLES
                             if getattr(folder, name))
            reactive(now)

        system._reactive_drop_queues = first_step
        evaluate = system.dropper.evaluate_queue
        views = []

        def checked(view):
            assert view.chain is system._tail_cache[view.machine_id][2]
            views.append(view)
            return evaluate(view)

        system.dropper.evaluate_queue = checked
        result = system.run()
        assert result.num_mapping_events > 0
        assert result.num_proactive_drops > 0
        assert leftovers == []
        assert views and result.perf.drop_evaluations == len(views)
        assert result.perf.fold_memo_hits > 0


class TestTracing:
    def test_trace_records_lifecycle(self):
        trace = InMemoryTrace()
        system = build_simple_system(trace=trace)
        system.submit([Task(id=0, type_id=0, arrival=0, deadline=100)])
        system.run()
        kinds = [r.kind for r in trace.records]
        assert "arrival" in kinds and "mapped" in kinds
        assert "started" in kinds and "completed" in kinds

    def test_mapping_events_counted(self):
        system = build_simple_system()
        system.submit([Task(id=i, type_id=0, arrival=i, deadline=1000)
                       for i in range(3)])
        result = system.run()
        # One mapping event per arrival and one per completion.
        assert result.num_mapping_events == 6


class TestPlatformValidation:
    def test_machine_type_count_mismatch(self):
        pet = deterministic_pet(n_machine_types=2)
        machine_types = [MachineType(id=0, name="only")]
        with pytest.raises(ValueError):
            HCSystem(machine_types=machine_types,
                     machines=[Machine(0, 0)],
                     task_types=[TaskType(id=0, name="t0")],
                     pet=pet, mapper=FCFS())

    def test_duplicate_machine_ids(self):
        pet = deterministic_pet()
        with pytest.raises(ValueError):
            HCSystem(machine_types=[MachineType(id=0, name="m0")],
                     machines=[Machine(0, 0), Machine(0, 0)],
                     task_types=[TaskType(id=0, name="t0")],
                     pet=pet, mapper=FCFS())

    def test_no_machines(self):
        pet = deterministic_pet()
        with pytest.raises(ValueError):
            HCSystem(machine_types=[MachineType(id=0, name="m0")], machines=[],
                     task_types=[TaskType(id=0, name="t0")], pet=pet, mapper=FCFS())
