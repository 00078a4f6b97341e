"""Unit tests for the optimal (exhaustive-search) dropping policy."""

import numpy as np
import pytest

from repro.core.completion import QueueEntry
from repro.core.dropping import (MachineQueueView, OptimalProactiveDropping,
                                 ProactiveHeuristicDropping,
                                 enumerate_droppable_subsets)
from repro.core.pmf import PMF
from repro.core.robustness import instantaneous_robustness_with_drops


def entry(task_id, exec_time, deadline):
    return QueueEntry(task_id=task_id, exec_pmf=PMF.delta(exec_time), deadline=deadline)


def view(entries, now=0):
    return MachineQueueView(machine_id=0, now=now, base_pmf=PMF.delta(now),
                            entries=tuple(entries))


class TestSubsetEnumeration:
    def test_counts_match_paper_complexity(self):
        """Section IV-D: a queue of size q has 2^(q-1) candidate subsets."""
        for q in range(1, 7):
            assert len(enumerate_droppable_subsets(q)) == 2 ** (q - 1)

    def test_zero_length_queue(self):
        assert enumerate_droppable_subsets(0) == [()]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            enumerate_droppable_subsets(-1)

    def test_subsets_never_include_last_position(self):
        for subset in enumerate_droppable_subsets(5):
            assert 4 not in subset


class TestParameters:
    def test_invalid_improvement_factor(self):
        with pytest.raises(ValueError):
            OptimalProactiveDropping(improvement_factor=0.9)

    def test_nan_improvement_factor_rejected(self):
        with pytest.raises(ValueError,
                           match="improvement_factor must be >= 1, got nan"):
            OptimalProactiveDropping(improvement_factor=float("nan"))

    def test_infinite_improvement_factor_accepted(self):
        policy = OptimalProactiveDropping(improvement_factor=float("inf"))
        assert policy.improvement_factor == float("inf")

    def test_invalid_queue_bound(self):
        with pytest.raises(ValueError):
            OptimalProactiveDropping(max_queue_length=0)

    def test_queue_length_guard(self):
        policy = OptimalProactiveDropping(max_queue_length=3)
        entries = [entry(i, 10, 1000) for i in range(5)]
        with pytest.raises(ValueError):
            policy.evaluate_queue(view(entries))


class TestDecisions:
    def test_empty_queue(self):
        assert OptimalProactiveDropping().evaluate_queue(view([])).drop_indices == ()

    def test_healthy_queue_nothing_dropped(self):
        entries = [entry(i, 10, 1000) for i in range(4)]
        decision = OptimalProactiveDropping().evaluate_queue(view(entries))
        assert decision.drop_indices == ()
        assert decision.robustness_after == pytest.approx(decision.robustness_before)

    def test_drops_hopeless_head(self):
        entries = [entry(0, 90, 50), entry(1, 10, 60), entry(2, 10, 70)]
        decision = OptimalProactiveDropping().evaluate_queue(view(entries))
        assert decision.drop_indices == (0,)
        assert decision.robustness_after == pytest.approx(2.0)

    def test_optimal_finds_true_maximum(self):
        """The chosen subset achieves the maximum over all candidate subsets."""
        rng = np.random.default_rng(11)
        exec_pmf = PMF.from_impulses([20, 70], [0.6, 0.4])
        entries = [QueueEntry(task_id=i, exec_pmf=exec_pmf,
                              deadline=int(rng.integers(40, 160)))
                   for i in range(5)]
        v = view(entries)
        decision = OptimalProactiveDropping().evaluate_queue(v)
        best = max(instantaneous_robustness_with_drops(v.base_pmf, entries, subset)
                   for subset in enumerate_droppable_subsets(len(entries)))
        achieved = instantaneous_robustness_with_drops(v.base_pmf, entries,
                                                       decision.drop_indices)
        assert achieved == pytest.approx(best)

    def test_optimal_at_least_as_good_as_heuristic(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            exec_pmf = PMF.from_impulses([25, 55, 95], [0.4, 0.4, 0.2])
            entries = [QueueEntry(task_id=i, exec_pmf=exec_pmf,
                                  deadline=int(rng.integers(50, 250)))
                       for i in range(5)]
            v = view(entries)
            opt = OptimalProactiveDropping().evaluate_queue(v)
            heu = ProactiveHeuristicDropping().evaluate_queue(v)
            opt_value = instantaneous_robustness_with_drops(v.base_pmf, entries,
                                                            opt.drop_indices)
            heu_value = instantaneous_robustness_with_drops(v.base_pmf, entries,
                                                            heu.drop_indices)
            assert opt_value >= heu_value - 1e-9

    def test_tie_break_prefers_fewer_drops(self):
        # Dropping anything from an all-success queue keeps robustness lower
        # or equal; the empty subset must win.
        entries = [entry(i, 1, 10_000) for i in range(4)]
        decision = OptimalProactiveDropping().evaluate_queue(view(entries))
        assert decision.num_drops == 0

    def test_never_drops_last_position(self):
        entries = [entry(0, 10, 1000), entry(1, 999, 5)]
        decision = OptimalProactiveDropping().evaluate_queue(view(entries))
        assert 1 not in decision.drop_indices
