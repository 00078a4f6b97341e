"""Unit tests for the mapping heuristics and their shared machinery."""

import pytest

from repro.api import MAPPERS
from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.mapping import EDF, FCFS, MSD, PAM, SJF, MinMin, make_heuristic
from repro.mapping.base import (Assignment, MachineState, MappingContext, TaskView)


def make_pet(means):
    """PET of delta PMFs from a task-type × machine-type mean matrix."""
    entries = {(i, j): PMF.delta(int(means[i][j]))
               for i in range(len(means)) for j in range(len(means[0]))}
    return PETMatrix(tuple(f"t{i}" for i in range(len(means))),
                     tuple(f"m{j}" for j in range(len(means[0]))),
                     entries)


def machine_state(machine_id, type_id, free_slots=6, now=0):
    return MachineState(machine_id=machine_id, type_id=type_id,
                        free_slots=free_slots, tail_pmf=PMF.delta(now))


def task_view(task_id, type_id=0, arrival=0, deadline=10_000):
    return TaskView(task_id=task_id, type_id=type_id, arrival=arrival,
                    deadline=deadline)


class TestMappingContext:
    def test_expected_completion_and_chance(self):
        pet = make_pet([[10, 20]])
        ctx = MappingContext(pet, now=0)
        m0 = machine_state(0, 0)
        task = task_view(0, deadline=15)
        assert ctx.expected_completion(m0, task) == pytest.approx(10.0)
        assert ctx.chance_of_success(m0, task) == pytest.approx(1.0)
        m1 = machine_state(1, 1)
        assert ctx.expected_completion(m1, task) == pytest.approx(20.0)
        assert ctx.chance_of_success(m1, task) == pytest.approx(0.0)

    def test_cache_respects_tail_version(self):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machine = machine_state(0, 0)
        task = task_view(0)
        first = ctx.completion_if_appended(machine, task)
        machine.commit(first)
        second = ctx.completion_if_appended(machine, task)
        assert second.mean() == pytest.approx(20.0)

    def test_mean_execution_over_types(self):
        pet = make_pet([[10, 30]])
        ctx = MappingContext(pet, now=0)
        assert ctx.mean_execution_over_types(task_view(0)) == pytest.approx(20.0)


class TestMachineState:
    def test_commit_consumes_slot_and_bumps_version(self):
        state = machine_state(0, 0, free_slots=2)
        state.commit(PMF.delta(10))
        assert state.free_slots == 1 and state.version == 1
        state.commit(PMF.delta(20))
        assert not state.has_free_slot
        with pytest.raises(RuntimeError):
            state.commit(PMF.delta(30))


class TestRegistry:
    def test_known_names(self):
        for name in ("MM", "MinMin", "MSD", "PAM", "FCFS", "SJF", "EDF"):
            assert name in MAPPERS
            heuristic = make_heuristic(name)
            assert heuristic.name in ("MM", "MSD", "PAM", "FCFS", "SJF", "EDF")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_heuristic("does-not-exist")


class TestMinMin:
    def test_prefers_fastest_machine(self):
        # Machine 1 is much faster for the single task type.
        pet = make_pet([[50, 10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0), machine_state(1, 1)]
        assignments = MinMin().map_tasks([task_view(0)], machines, ctx)
        assert assignments == [Assignment(task_id=0, machine_id=1)]

    def test_fills_all_free_slots(self):
        pet = make_pet([[10, 12]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2), machine_state(1, 1, free_slots=2)]
        tasks = [task_view(i) for i in range(6)]
        assignments = MinMin().map_tasks(tasks, machines, ctx)
        assert len(assignments) == 4
        assert all(not m.has_free_slot for m in machines)

    def test_respects_exhausted_batch(self):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=4)]
        assignments = MinMin().map_tasks([task_view(0)], machines, ctx)
        assert len(assignments) == 1

    def test_shortest_tasks_mapped_first_on_one_machine(self):
        # Two task types: short (10) and long (100); MinMin maps the shortest
        # completion first, so the short task is assigned before the long one.
        pet = make_pet([[100], [10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2)]
        tasks = [task_view(0, type_id=0), task_view(1, type_id=1)]
        assignments = MinMin().map_tasks(tasks, machines, ctx)
        assert assignments[0].task_id == 1

    def test_inconsistent_heterogeneity_exploited(self):
        # Task type 0 is fastest on machine 0, type 1 on machine 1.
        pet = make_pet([[10, 90], [90, 10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0), machine_state(1, 1)]
        tasks = [task_view(0, type_id=0), task_view(1, type_id=1)]
        assignments = MinMin().map_tasks(tasks, machines, ctx)
        placed = {a.task_id: a.machine_id for a in assignments}
        assert placed == {0: 0, 1: 1}


class TestMSD:
    def test_soonest_deadline_assigned_first(self):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=1)]
        tasks = [task_view(0, deadline=500), task_view(1, deadline=100)]
        assignments = MSD().map_tasks(tasks, machines, ctx)
        assert assignments[0].task_id == 1

    def test_tie_broken_by_completion_time(self):
        pet = make_pet([[10], [30]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=1)]
        tasks = [task_view(0, type_id=1, deadline=100), task_view(1, type_id=0, deadline=100)]
        assignments = MSD().map_tasks(tasks, machines, ctx)
        assert assignments[0].task_id == 1


class TestPAM:
    def test_prefers_highest_chance_of_success(self):
        # Machine 0 completes at 30 (misses the 20 deadline), machine 1 at 10.
        pet = make_pet([[30, 10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0), machine_state(1, 1)]
        assignments = PAM().map_tasks([task_view(0, deadline=20)], machines, ctx)
        assert assignments == [Assignment(task_id=0, machine_id=1)]

    def test_single_assignment_per_round_still_fills_queues(self):
        pet = make_pet([[10, 10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2), machine_state(1, 1, free_slots=2)]
        tasks = [task_view(i, deadline=200) for i in range(4)]
        assignments = PAM().map_tasks(tasks, machines, ctx)
        assert len(assignments) == 4

    def test_assignments_are_unique_per_task(self):
        pet = make_pet([[10, 15], [20, 5]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=3), machine_state(1, 1, free_slots=3)]
        tasks = [task_view(i, type_id=i % 2, deadline=100 + 10 * i) for i in range(5)]
        assignments = PAM().map_tasks(tasks, machines, ctx)
        assert len({a.task_id for a in assignments}) == len(assignments)


class TestOrderedHeuristics:
    def test_declared_priority_columns_build_one_phase_specs(self):
        for cls, phase2 in ((FCFS, ("arrival",)),
                            (SJF, ("mean_execution_over_types", "arrival")),
                            (EDF, ("deadline", "arrival"))):
            spec = cls.score_spec
            assert spec is not None
            assert spec.phase1 == ("expected_completion",)
            assert spec.phase2 == phase2
            assert spec.assign_per_machine is False

    def test_undeclared_subclass_fails_at_instantiation(self):
        from repro.mapping.base import OrderedMappingHeuristic

        class Broken(OrderedMappingHeuristic):
            name = "broken"

        with pytest.raises(TypeError, match="priority_columns"):
            Broken()

    def test_legacy_task_priority_override_still_instantiates(self):
        from repro.mapping.base import OrderedMappingHeuristic

        class Legacy(OrderedMappingHeuristic):
            name = "legacy"

            def task_priority(self, ctx, task):
                return (float(task.task_id),)

        assert Legacy().score_spec is None  # pinned to the greedy loop

    def test_fcfs_arrival_order(self):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2)]
        tasks = [task_view(0, arrival=50), task_view(1, arrival=10)]
        assignments = FCFS().map_tasks(tasks, machines, ctx)
        assert [a.task_id for a in assignments] == [1, 0]

    def test_sjf_shortest_first(self):
        pet = make_pet([[100], [10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2)]
        tasks = [task_view(0, type_id=0), task_view(1, type_id=1)]
        assignments = SJF().map_tasks(tasks, machines, ctx)
        assert [a.task_id for a in assignments] == [1, 0]

    def test_edf_earliest_deadline_first(self):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2)]
        tasks = [task_view(0, deadline=900), task_view(1, deadline=80)]
        assignments = EDF().map_tasks(tasks, machines, ctx)
        assert [a.task_id for a in assignments] == [1, 0]

    def test_stops_when_no_free_slots(self):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=1)]
        tasks = [task_view(i) for i in range(3)]
        for heuristic in (FCFS(), SJF(), EDF()):
            machines_copy = [machine_state(0, 0, free_slots=1)]
            assignments = heuristic.map_tasks(tasks, machines_copy, ctx)
            assert len(assignments) == 1

    def test_ordered_heuristics_pick_least_loaded_machine(self):
        pet = make_pet([[10, 10]])
        ctx = MappingContext(pet, now=0)
        busy = machine_state(0, 0)
        busy.tail_pmf = PMF.delta(50)       # machine 0 is backed up
        idle = machine_state(1, 1)
        assignments = FCFS().map_tasks([task_view(0)], [busy, idle], ctx)
        assert assignments[0].machine_id == 1


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", ["MM", "MSD", "PAM", "FCFS", "SJF", "EDF"])
    def test_no_assignment_without_free_slots(self, name):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=0)]
        assignments = make_heuristic(name).map_tasks([task_view(0)], machines, ctx)
        assert assignments == []

    @pytest.mark.parametrize("name", ["MM", "MSD", "PAM", "FCFS", "SJF", "EDF"])
    def test_no_tasks_means_no_assignments(self, name):
        pet = make_pet([[10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0)]
        assert make_heuristic(name).map_tasks([], machines, ctx) == []

    @pytest.mark.parametrize("name", ["MM", "MSD", "PAM", "FCFS", "SJF", "EDF"])
    def test_assignments_reference_valid_ids(self, name):
        pet = make_pet([[10, 20], [20, 10]])
        ctx = MappingContext(pet, now=0)
        machines = [machine_state(0, 0, free_slots=2), machine_state(1, 1, free_slots=2)]
        tasks = [task_view(i, type_id=i % 2, deadline=100 + i) for i in range(6)]
        assignments = make_heuristic(name).map_tasks(tasks, machines, ctx)
        task_ids = {t.task_id for t in tasks}
        machine_ids = {m.machine_id for m in machines}
        assert all(a.task_id in task_ids and a.machine_id in machine_ids
                   for a in assignments)
        assert len({a.task_id for a in assignments}) == len(assignments)
        assert len(assignments) <= 4
