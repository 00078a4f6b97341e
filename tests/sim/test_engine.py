"""Unit tests for the discrete-event engine and event types."""

import pytest

from repro.sim.engine import SimulationEngine, SimulationLimitError
from repro.sim.events import Event, SimulationEnd, TaskArrival, TaskCompletion


class Recorder:
    """Test handler recording (time, event) pairs."""

    def __init__(self):
        self.seen = []

    def handle(self, event, engine):
        self.seen.append((engine.now, event))


class SelfScheduler:
    """Handler that schedules a follow-up event for every arrival."""

    def __init__(self, limit):
        self.limit = limit
        self.count = 0

    def handle(self, event, engine):
        self.count += 1
        if self.count < self.limit:
            engine.schedule(TaskArrival(time=engine.now + 1, task_id=self.count))


class TestEvents:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TaskArrival(time=-1, task_id=0)

    def test_priorities(self):
        assert TaskCompletion.priority < TaskArrival.priority < SimulationEnd.priority

    def test_events_are_frozen(self):
        event = TaskArrival(time=5, task_id=1)
        with pytest.raises(Exception):
            event.time = 10


class TestScheduling:
    def test_events_dispatched_in_time_order(self):
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=30, task_id=2))
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.schedule(TaskArrival(time=20, task_id=1))
        engine.run(recorder)
        assert [t for t, _ in recorder.seen] == [10, 20, 30]
        assert [e.task_id for _, e in recorder.seen] == [0, 1, 2]

    def test_completions_before_arrivals_at_same_time(self):
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=10, task_id=1))
        engine.schedule(TaskCompletion(time=10, task_id=0, machine_id=0))
        engine.run(recorder)
        assert isinstance(recorder.seen[0][1], TaskCompletion)
        assert isinstance(recorder.seen[1][1], TaskArrival)

    def test_insertion_order_breaks_remaining_ties(self):
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=10, task_id=7))
        engine.schedule(TaskArrival(time=10, task_id=8))
        engine.run(recorder)
        assert [e.task_id for _, e in recorder.seen] == [7, 8]

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=5, task_id=0))
        engine.run(recorder)
        assert engine.now == 5
        with pytest.raises(ValueError):
            engine.schedule(TaskArrival(time=4, task_id=1))

    def test_clock_advances_monotonically(self):
        engine = SimulationEngine()
        handler = SelfScheduler(limit=10)
        engine.schedule(TaskArrival(time=0, task_id=0))
        engine.run(handler)
        assert engine.now == 9
        assert engine.dispatched_events == 10

    def test_step_returns_event_or_none(self):
        engine = SimulationEngine()
        recorder = Recorder()
        assert engine.step(recorder) is None
        engine.schedule(TaskArrival(time=3, task_id=0))
        event = engine.step(recorder)
        assert isinstance(event, TaskArrival)


class TestRunLimits:
    def test_until_limit(self):
        engine = SimulationEngine()
        recorder = Recorder()
        for t in (5, 10, 15):
            engine.schedule(TaskArrival(time=t, task_id=t))
        dispatched = engine.run(recorder, until=10)
        assert dispatched == 2
        assert engine.pending_events == 1

    def test_until_advances_clock_to_horizon(self):
        # The horizon was fully simulated, so the clock must stand at it
        # even though the last dispatched event fired earlier.
        engine = SimulationEngine()
        recorder = Recorder()
        for t in (5, 15):
            engine.schedule(TaskArrival(time=t, task_id=t))
        engine.run(recorder, until=10)
        assert engine.now == 10
        # Scheduling between the last event and the horizon is in the past.
        with pytest.raises(ValueError):
            engine.schedule(TaskArrival(time=7, task_id=99))
        # Resuming past the remaining event also lands on the new horizon.
        engine.run(recorder, until=20)
        assert [t for t, _ in recorder.seen] == [5, 15]
        assert engine.now == 20

    def test_until_with_drained_queue_advances_clock(self):
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=3, task_id=0))
        engine.run(recorder, until=100)
        assert engine.now == 100

    def test_until_before_any_event_advances_clock(self):
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=50, task_id=0))
        engine.run(recorder, until=10)
        assert engine.now == 10
        assert engine.pending_events == 1

    def test_stop_when_does_not_jump_to_horizon(self):
        engine = SimulationEngine()
        recorder = Recorder()
        for t in range(5):
            engine.schedule(TaskArrival(time=t, task_id=t))
        engine.run(recorder, until=100,
                   stop_when=lambda: len(recorder.seen) >= 2)
        assert engine.now == 1  # clock stays at the last dispatched event

    def test_stop_when_predicate(self):
        engine = SimulationEngine()
        recorder = Recorder()
        for t in range(5):
            engine.schedule(TaskArrival(time=t, task_id=t))
        engine.run(recorder, stop_when=lambda: len(recorder.seen) >= 2)
        assert len(recorder.seen) == 2

    def test_max_steps_guard(self):
        engine = SimulationEngine(max_steps=5)
        handler = SelfScheduler(limit=100)
        engine.schedule(TaskArrival(time=0, task_id=0))
        with pytest.raises(SimulationLimitError):
            engine.run(handler)

    def test_start_time(self):
        engine = SimulationEngine(start_time=100)
        assert engine.now == 100
        with pytest.raises(ValueError):
            engine.schedule(TaskArrival(time=50, task_id=0))
