"""Unit tests for machines, machine queues and the batch queue."""

import time

import pytest

from repro.sim.batch_queue import BatchQueue
from repro.sim.machine import Machine, MachineType


class TestMachineType:
    def test_valid(self):
        mt = MachineType(id=0, name="gpu", price_per_hour=0.9)
        assert mt.price_per_hour == 0.9

    def test_invalid(self):
        with pytest.raises(ValueError):
            MachineType(id=-1, name="x")
        with pytest.raises(ValueError):
            MachineType(id=0, name="")
        with pytest.raises(ValueError):
            MachineType(id=0, name="x", price_per_hour=-1.0)


class TestMachine:
    def test_capacity_accounting(self):
        m = Machine(machine_id=0, type_id=0, queue_capacity=3)
        assert m.is_idle and m.has_free_slot and m.free_slots == 3
        m.enqueue(10)
        m.enqueue(11)
        assert m.occupancy == 2 and m.free_slots == 1
        started = m.start_next()
        assert started == 10
        assert not m.is_idle
        assert m.occupancy == 2  # running + 1 pending
        m.enqueue(12)
        assert not m.has_free_slot
        with pytest.raises(RuntimeError):
            m.enqueue(13)

    def test_queue_capacity_validation(self):
        with pytest.raises(ValueError):
            Machine(machine_id=0, type_id=0, queue_capacity=0)

    def test_duplicate_enqueue_rejected(self):
        m = Machine(0, 0, queue_capacity=4)
        m.enqueue(1)
        with pytest.raises(ValueError):
            m.enqueue(1)

    def test_fcfs_order(self):
        m = Machine(0, 0, queue_capacity=4)
        for task_id in (5, 6, 7):
            m.enqueue(task_id)
        assert m.start_next() == 5
        m.finish_running(5, busy=10)
        assert m.start_next() == 6

    def test_remove_pending(self):
        m = Machine(0, 0, queue_capacity=4)
        m.enqueue(1)
        m.enqueue(2)
        m.remove_pending(1)
        assert m.pending_tasks == [2]
        with pytest.raises(ValueError):
            m.remove_pending(99)

    def test_start_next_when_running_raises(self):
        m = Machine(0, 0, queue_capacity=4)
        m.enqueue(1)
        m.enqueue(2)
        m.start_next()
        with pytest.raises(RuntimeError):
            m.start_next()

    def test_start_next_empty_returns_none(self):
        m = Machine(0, 0)
        assert m.start_next() is None

    def test_finish_running_validation(self):
        m = Machine(0, 0)
        m.enqueue(1)
        m.start_next()
        with pytest.raises(ValueError):
            m.finish_running(2, busy=5)
        with pytest.raises(ValueError):
            m.finish_running(1, busy=-1)

    def test_busy_time_accumulates(self):
        m = Machine(0, 0)
        m.enqueue(1)
        m.start_next()
        m.finish_running(1, busy=25)
        m.enqueue(2)
        m.start_next()
        m.finish_running(2, busy=15)
        assert m.busy_time == 40
        assert m.started_tasks == 2


class TestBatchQueue:
    def test_fifo_window(self):
        q = BatchQueue()
        for task_id in (3, 1, 2):
            q.push(task_id)
        assert q.window(2) == [3, 1]
        assert q.window(10) == [3, 1, 2]
        assert len(q) == 3

    def test_duplicate_push_rejected(self):
        q = BatchQueue()
        q.push(1)
        with pytest.raises(ValueError):
            q.push(1)

    def test_remove(self):
        q = BatchQueue()
        q.push(1)
        q.push(2)
        q.remove(1)
        assert q.snapshot() == [2]
        with pytest.raises(ValueError):
            q.remove(42)

    def test_contains_and_iter(self):
        q = BatchQueue()
        q.push(7)
        assert 7 in q
        assert list(q) == [7]
        assert not q.is_empty

    def test_window_negative(self):
        with pytest.raises(ValueError):
            BatchQueue().window(-1)

    def test_empty(self):
        q = BatchQueue()
        assert q.is_empty
        assert q.window(5) == []

    def test_order_preserved_after_removals(self):
        q = BatchQueue()
        for i in range(6):
            q.push(i)
        q.remove(0)
        q.remove(3)
        assert q.snapshot() == [1, 2, 4, 5]
        q.push(9)
        assert q.window(10) == [1, 2, 4, 5, 9]


class TestBatchQueueExpiry:
    def test_pop_expired_returns_only_expired(self):
        q = BatchQueue()
        q.push(1, deadline=10)
        q.push(2, deadline=30)
        q.push(3, deadline=20)
        assert q.pop_expired(5) == []
        assert q.pop_expired(20) == [1, 3]
        assert q.snapshot() == [2]
        assert q.pop_expired(100) == [2]
        assert q.is_empty

    def test_pop_expired_skips_removed_tasks(self):
        q = BatchQueue()
        q.push(1, deadline=10)
        q.push(2, deadline=10)
        q.remove(1)  # mapped before expiring: stale heap entry remains
        assert q.pop_expired(10) == [2]

    def test_deadline_boundary_is_inclusive(self):
        q = BatchQueue()
        q.push(1, deadline=10)
        assert q.pop_expired(9) == []
        assert q.pop_expired(10) == [1]

    def test_push_without_deadline_never_expires(self):
        q = BatchQueue()
        q.push(1)
        q.push(2, deadline=5)
        assert q.pop_expired(1000) == [2]
        assert 1 in q


class TestBatchQueueScaling:
    """Regression guard: push/remove/contains must stay sub-linear.

    The original list-backed queue made ``push`` (duplicate scan),
    ``remove`` and ``__contains__`` all O(n), which turned oversubscribed
    runs quadratic in the backlog.  50k tasks' worth of mixed operations
    completes in well under a second with O(1) operations but takes minutes
    with O(n) ones, so a generous wall-clock bound reliably separates the
    two regimes without being flaky on slow CI machines.
    """

    def test_50k_task_queue_operates_in_bounded_time(self):
        n = 50_000
        q = BatchQueue()
        start = time.perf_counter()
        for i in range(n):
            q.push(i, deadline=2 * n - i)
        for i in range(n):  # membership probes against a full queue
            assert i in q
        for i in range(0, n, 2):  # interior removals
            q.remove(i)
        expired = q.pop_expired(2 * n)  # drain the survivors via the heap
        elapsed = time.perf_counter() - start
        assert len(expired) == n // 2
        assert q.is_empty
        assert elapsed < 2.0, (
            f"50k-task batch-queue workload took {elapsed:.2f}s; "
            "operations appear to have regressed to O(n)")
