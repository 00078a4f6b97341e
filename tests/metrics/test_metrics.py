"""Unit tests for robustness measurement, drop breakdowns and collectors."""

import numpy as np
import pytest

from repro.cost.pricing import PricingModel
from repro.metrics.collector import aggregate_trials, collect_trial_metrics
from repro.metrics.drops import DropBreakdown, drop_breakdown
from repro.metrics.robustness import (default_exclusion, measured_tasks,
                                      robustness_report)
from repro.sim.machine import Machine, MachineType
from repro.sim.system import SimulationResult
from repro.sim.task import Task, TaskStatus, TaskType


def make_task(task_id, status, arrival=None):
    arrival = arrival if arrival is not None else task_id * 10
    task = Task(id=task_id, type_id=0, arrival=arrival, deadline=arrival + 100)
    task.status = status
    return task


def make_result(statuses, busy=0):
    tasks = {i: make_task(i, status) for i, status in enumerate(statuses)}
    machine = Machine(0, 0)
    machine.busy_time = busy
    counts = {s: sum(1 for t in tasks.values() if t.status == s) for s in TaskStatus}
    return SimulationResult(
        tasks=tasks,
        machines=[machine],
        machine_types=[MachineType(id=0, name="m0", price_per_hour=3.6)],
        task_types=[TaskType(id=0, name="t0")],
        makespan=1000,
        num_mapping_events=len(tasks) * 2,
        num_proactive_drops=counts[TaskStatus.DROPPED_PROACTIVE],
        num_reactive_queue_drops=counts[TaskStatus.DROPPED_REACTIVE],
        num_batch_expired_drops=counts[TaskStatus.DROPPED_EXPIRED_BATCH],
        num_dispatched_events=len(tasks) * 2,
    )


ON = TaskStatus.COMPLETED_ON_TIME
LATE = TaskStatus.COMPLETED_LATE
REACT = TaskStatus.DROPPED_REACTIVE
PRO = TaskStatus.DROPPED_PROACTIVE
BATCH = TaskStatus.DROPPED_EXPIRED_BATCH


class TestDefaultExclusion:
    def test_scales_with_workload(self):
        assert default_exclusion(20_000) == 100
        assert default_exclusion(2_000) == 10
        assert default_exclusion(0) == 0

    def test_capped_at_quarter(self):
        assert default_exclusion(8) <= 2


class TestRobustnessReport:
    def test_basic_percentages(self):
        result = make_result([ON, ON, LATE, REACT])
        report = robustness_report(result, warmup=0, cooldown=0)
        assert report.measured_tasks == 4
        assert report.on_time == 2
        assert report.robustness_pct == pytest.approx(50.0)
        assert report.failed == 2
        assert report.total_drops == 1

    def test_warmup_cooldown_exclusion(self):
        statuses = [LATE] + [ON] * 4 + [REACT]
        result = make_result(statuses)
        report = robustness_report(result, warmup=1, cooldown=1)
        assert report.measured_tasks == 4
        assert report.robustness_pct == pytest.approx(100.0)

    def test_exclusion_larger_than_workload(self):
        result = make_result([ON, ON])
        report = robustness_report(result, warmup=5, cooldown=5)
        assert report.measured_tasks == 0
        assert report.robustness_pct == 0.0

    def test_measured_tasks_order(self):
        result = make_result([ON, ON, ON])
        tasks = measured_tasks(result, warmup=1, cooldown=0)
        assert [t.id for t in tasks] == [1, 2]
        with pytest.raises(ValueError):
            measured_tasks(result, warmup=-1, cooldown=0)

    def test_default_exclusion_applied(self):
        statuses = [ON] * 400
        result = make_result(statuses)
        report = robustness_report(result)
        assert report.measured_tasks == 400 - 2 * default_exclusion(400)

    def test_breakdown_fields(self):
        result = make_result([ON, PRO, BATCH, REACT, LATE])
        report = robustness_report(result, warmup=0, cooldown=0)
        assert report.dropped_proactive == 1
        assert report.dropped_reactive == 1
        assert report.expired_batch == 1
        assert report.completed_late == 1


class TestDropBreakdown:
    def test_counts_and_shares(self):
        result = make_result([ON, PRO, PRO, REACT, BATCH])
        breakdown = drop_breakdown(result)
        assert breakdown.proactive == 2
        assert breakdown.reactive == 1
        assert breakdown.expired_batch == 1
        assert breakdown.total == 4
        assert breakdown.queue_drops == 3
        assert breakdown.reactive_share == pytest.approx(1 / 3)
        assert breakdown.proactive_share == pytest.approx(2 / 3)

    def test_no_drops(self):
        breakdown = drop_breakdown(make_result([ON, ON]))
        assert breakdown.total == 0
        assert breakdown.reactive_share == 0.0
        assert breakdown.proactive_share == 0.0


class TestCarriedCounts:
    """Finished tasks a restored service carries as status counts only
    measure exactly like the same tasks held in full."""

    def _split(self, statuses, held):
        """``make_result(statuses)`` with all but the last ``held`` tasks
        folded into carried counts."""
        result = make_result(statuses)
        for task_id in range(len(statuses) - held):
            status = result.tasks.pop(task_id).status
            result.carried[status] = result.carried.get(status, 0) + 1
        return result

    def test_counts_measure_like_tasks(self):
        statuses = [ON, PRO, LATE, ON, REACT, BATCH, ON]
        whole = collect_trial_metrics(make_result(statuses),
                                      warmup=0, cooldown=0)
        split = self._split(statuses, held=2)
        assert split.num_tasks == len(statuses)
        assert split.tasks_by_status() == \
            make_result(statuses).tasks_by_status()
        assert drop_breakdown(split) == whole.drops
        assert collect_trial_metrics(split, warmup=0, cooldown=0) == whole

    def test_exclusion_with_carried_counts_raises(self):
        split = self._split([ON] * 400, held=3)
        with pytest.raises(ValueError, match="397 finished tasks are carried"):
            robustness_report(split, warmup=0, cooldown=1)
        assert default_exclusion(split.num_tasks) == 2
        with pytest.raises(ValueError, match="carried as counts only"):
            collect_trial_metrics(split)


class TestCollector:
    def test_collect_without_pricing(self):
        metrics = collect_trial_metrics(make_result([ON, ON, LATE]), warmup=0, cooldown=0)
        assert metrics.cost is None
        assert metrics.robustness_pct == pytest.approx(2 / 3 * 100)
        assert metrics.makespan == 1000

    def test_collect_with_pricing(self):
        result = make_result([ON, LATE], busy=3_600_000)  # one hour busy
        pricing = PricingModel.from_machine_types(result.machine_types)
        metrics = collect_trial_metrics(result, pricing=pricing, warmup=0, cooldown=0)
        assert metrics.cost is not None
        assert metrics.cost.total_cost == pytest.approx(3.6)
        assert metrics.cost.robustness_pct == pytest.approx(50.0)
        assert metrics.cost.cost_per_completed_pct == pytest.approx(3.6 / 50.0)

    def test_aggregate_trials(self):
        trials = [collect_trial_metrics(make_result([ON, ON, LATE, REACT]),
                                        warmup=0, cooldown=0)
                  for _ in range(3)]
        aggregate = aggregate_trials(trials)
        assert aggregate.num_trials == 3
        assert aggregate.robustness_pct.mean == pytest.approx(50.0)
        assert aggregate.cost_per_completed_pct is None

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([])
