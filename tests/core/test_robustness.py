"""Unit tests for instantaneous robustness (Eq. 3 and Eq. 7)."""

import pytest

from repro.core.completion import QueueEntry
from repro.core.pmf import PMF
from repro.core.robustness import (instantaneous_robustness,
                                   instantaneous_robustness_with_drops,
                                   queue_success_probabilities,
                                   queue_success_probabilities_with_drops)


def entry(task_id, mean, deadline):
    return QueueEntry(task_id=task_id, exec_pmf=PMF.delta(mean), deadline=deadline)


def stochastic_entry(task_id, deadline):
    return QueueEntry(task_id=task_id,
                      exec_pmf=PMF.from_impulses([5, 15], [0.5, 0.5]),
                      deadline=deadline)


class TestSuccessProbabilities:
    def test_deterministic_queue_all_succeed(self):
        base = PMF.delta(0)
        entries = [entry(0, 10, 100), entry(1, 10, 100), entry(2, 10, 100)]
        probs = queue_success_probabilities(base, entries)
        assert probs == pytest.approx([1.0, 1.0, 1.0])

    def test_deterministic_queue_tail_misses(self):
        base = PMF.delta(0)
        entries = [entry(0, 10, 100), entry(1, 10, 15), entry(2, 10, 35)]
        probs = queue_success_probabilities(base, entries)
        # task 1 starts at 10 (< 15) so it runs, finishing at 20 > 15 -> fails;
        # task 2 starts at 20 (< 35) and finishes at 30 < 35 -> succeeds.
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.0)
        assert probs[2] == pytest.approx(1.0)

    def test_probabilities_are_within_unit_interval(self):
        base = PMF.delta(0)
        entries = [stochastic_entry(i, 20 + 5 * i) for i in range(4)]
        probs = queue_success_probabilities(base, entries)
        assert all(0.0 <= p <= 1.0 + 1e-9 for p in probs)

    def test_with_drops_marks_dropped_as_zero(self):
        base = PMF.delta(0)
        entries = [stochastic_entry(i, 30 + 10 * i) for i in range(3)]
        probs = queue_success_probabilities_with_drops(base, entries, [1])
        assert probs[1] == 0.0

    def test_dropping_never_decreases_successor_chance(self):
        base = PMF.delta(0)
        entries = [stochastic_entry(i, 25 + 10 * i) for i in range(4)]
        baseline = queue_success_probabilities(base, entries)
        dropped = queue_success_probabilities_with_drops(base, entries, [0])
        for i in range(1, 4):
            assert dropped[i] >= baseline[i] - 1e-12


class TestInstantaneousRobustness:
    def test_matches_sum_of_probabilities(self):
        base = PMF.delta(0)
        entries = [stochastic_entry(i, 20 + 7 * i) for i in range(3)]
        probs = queue_success_probabilities(base, entries)
        assert instantaneous_robustness(base, entries) == pytest.approx(sum(probs))

    def test_empty_queue_is_zero(self):
        assert instantaneous_robustness(PMF.delta(0), []) == 0.0

    def test_with_drops_excludes_dropped_task(self):
        base = PMF.delta(0)
        entries = [entry(0, 10, 100), entry(1, 10, 100)]
        r = instantaneous_robustness_with_drops(base, entries, [0])
        assert r == pytest.approx(1.0)

    def test_dropping_hopeless_head_improves_robustness(self):
        """The motivating example: a huge head task starves the queue."""
        base = PMF.delta(0)
        big = QueueEntry(task_id=0, exec_pmf=PMF.delta(90), deadline=50)
        small1 = QueueEntry(task_id=1, exec_pmf=PMF.delta(10), deadline=60)
        small2 = QueueEntry(task_id=2, exec_pmf=PMF.delta(10), deadline=70)
        entries = [big, small1, small2]
        without = instantaneous_robustness(base, entries)
        with_drop = instantaneous_robustness_with_drops(base, entries, [0])
        assert with_drop > without
