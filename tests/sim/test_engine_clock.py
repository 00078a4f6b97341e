"""Regression pin of the engine's clock semantics.

The streaming driver (:mod:`repro.stream.service`) performs many
back-to-back ``run(until=...)`` calls on one long-lived engine and depends
on the exact clock behaviour documented in :mod:`repro.sim.engine`:
schedule-into-the-past rejection, at-now scheduling, horizon advancement
with an empty span, and the early-exit clock position of ``stop_when``.
"""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.events import TaskArrival, TaskCompletion


class Recorder:
    def __init__(self):
        self.seen = []

    def handle(self, event, engine):
        self.seen.append((engine.now, event))


class TestScheduleBounds:
    def test_past_event_rejected(self):
        engine = SimulationEngine()
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.run(Recorder())
        assert engine.now == 10
        with pytest.raises(ValueError, match="before now"):
            engine.schedule(TaskArrival(time=9, task_id=1))

    def test_event_at_now_accepted(self):
        engine = SimulationEngine()

        class AtNowScheduler:
            def __init__(self):
                self.times = []

            def handle(self, event, eng):
                self.times.append((eng.now, type(event).__name__))
                if isinstance(event, TaskArrival):
                    # A handler may schedule more work at the current
                    # instant; it must dispatch within the same run.
                    eng.schedule(TaskCompletion(time=eng.now, task_id=event.task_id))

        handler = AtNowScheduler()
        engine.schedule(TaskArrival(time=5, task_id=0))
        dispatched = engine.run(handler)
        assert dispatched == 2
        assert handler.times == [(5, "TaskArrival"), (5, "TaskCompletion")]

    def test_rejection_leaves_queue_untouched(self):
        engine = SimulationEngine(start_time=100)
        engine.schedule(TaskArrival(time=150, task_id=0))
        with pytest.raises(ValueError):
            engine.schedule(TaskArrival(time=50, task_id=1))
        assert engine.pending_events == 1
        assert engine.pending_snapshot()[0].time == 150


class TestHorizonClock:
    def test_until_advances_clock_past_last_event(self):
        engine = SimulationEngine()
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.run(Recorder(), until=500)
        assert engine.now == 500

    def test_until_with_no_events_advances_clock(self):
        engine = SimulationEngine()
        engine.run(Recorder(), until=300)
        assert engine.now == 300

    def test_repeated_horizons_observe_full_span(self):
        # The streaming driver's exact pattern: consecutive run(until=...)
        # calls must leave the clock at each horizon so events landing in
        # the gap are schedulable.
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.run(recorder, until=100)
        assert engine.now == 100
        engine.schedule(TaskArrival(time=100, task_id=1))  # at now: fine
        engine.schedule(TaskArrival(time=170, task_id=2))
        engine.run(recorder, until=200)
        assert engine.now == 200
        assert [t for t, _ in recorder.seen] == [10, 100, 170]

    def test_events_past_horizon_stay_queued(self):
        engine = SimulationEngine()
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.schedule(TaskArrival(time=900, task_id=1))
        dispatched = engine.run(Recorder(), until=500)
        assert dispatched == 1
        assert engine.pending_events == 1
        assert engine.now == 500


class TestStopWhenClock:
    def test_early_exit_leaves_clock_at_last_event(self):
        # stop_when stops mid-span; the remaining time was never simulated
        # so the clock must NOT jump to the horizon.
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.schedule(TaskArrival(time=20, task_id=1))
        engine.schedule(TaskArrival(time=30, task_id=2))
        dispatched = engine.run(recorder, until=1000,
                                stop_when=lambda: len(recorder.seen) >= 2)
        assert dispatched == 2
        assert engine.now == 20
        assert engine.pending_events == 1

    def test_stop_when_after_final_event_still_holds_clock(self):
        # Even when the predicate fires on the very last queued event, the
        # clock stays at that event, not at the horizon.
        engine = SimulationEngine()
        recorder = Recorder()
        engine.schedule(TaskArrival(time=10, task_id=0))
        engine.run(recorder, until=1000, stop_when=lambda: True)
        assert engine.now == 10

    def test_resuming_after_early_exit_continues(self):
        engine = SimulationEngine()
        recorder = Recorder()
        for k, t in enumerate((10, 20, 30)):
            engine.schedule(TaskArrival(time=t, task_id=k))
        engine.run(recorder, until=1000,
                   stop_when=lambda: len(recorder.seen) >= 1)
        engine.run(recorder, until=1000)
        assert [t for t, _ in recorder.seen] == [10, 20, 30]
        assert engine.now == 1000


class TestSnapshotStateRoundTrip:
    def test_pending_snapshot_orders_by_dispatch(self):
        engine = SimulationEngine()
        engine.schedule(TaskArrival(time=20, task_id=0))
        engine.schedule(TaskCompletion(time=20, task_id=1))
        engine.schedule(TaskArrival(time=10, task_id=2))
        times = [(e.time, e.priority) for e in engine.pending_snapshot()]
        assert times == sorted(times)
        # Completion (priority 1) dispatches before the equal-time arrival.
        snapshot = engine.pending_snapshot()
        assert isinstance(snapshot[1], TaskCompletion)

    def test_load_state_reproduces_dispatch_order(self):
        source = SimulationEngine()
        source.schedule(TaskArrival(time=20, task_id=0))
        source.schedule(TaskCompletion(time=20, task_id=1))
        source.schedule(TaskArrival(time=20, task_id=2))
        source.schedule(TaskArrival(time=35, task_id=3))
        expected = Recorder()
        pending = source.pending_snapshot()

        restored = SimulationEngine()
        restored.load_state(now=5, dispatched=7, events=pending)
        assert restored.now == 5
        assert restored.dispatched_events == 7
        replay = Recorder()
        source.run(expected)
        restored.run(replay)
        assert [e for _, e in replay.seen] == [e for _, e in expected.seen]

    def test_load_state_requires_fresh_engine(self):
        engine = SimulationEngine()
        engine.schedule(TaskArrival(time=10, task_id=0))
        with pytest.raises(RuntimeError, match="fresh engine"):
            engine.load_state(now=0, dispatched=0, events=[])
