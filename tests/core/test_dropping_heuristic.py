"""Unit tests for the proactive dropping heuristic (Fig. 4, Eq. 8)."""

import pytest

from repro.core.completion import QueueEntry
from repro.core.dropping import (DEFAULT_BETA, DEFAULT_ETA, MachineQueueView,
                                 ProactiveHeuristicDropping)
from repro.core.pmf import PMF


def entry(task_id, exec_time, deadline):
    return QueueEntry(task_id=task_id, exec_pmf=PMF.delta(exec_time), deadline=deadline)


def view(entries, now=0):
    return MachineQueueView(machine_id=0, now=now, base_pmf=PMF.delta(now),
                            entries=tuple(entries))


class TestParameters:
    def test_defaults_match_paper(self):
        assert DEFAULT_BETA == 1.0
        assert DEFAULT_ETA == 2
        policy = ProactiveHeuristicDropping()
        assert policy.beta == 1.0
        assert policy.eta == 2

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            ProactiveHeuristicDropping(beta=0.5)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            ProactiveHeuristicDropping(eta=0)

    def test_nan_beta_rejected(self):
        # NaN fails every Eq. 8 comparison, so it would silently never drop.
        with pytest.raises(ValueError, match="beta must be >= 1, got nan"):
            ProactiveHeuristicDropping(beta=float("nan"))

    @pytest.mark.parametrize("eta", [1.5, True, float("nan"), float("inf")])
    def test_non_integral_eta_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be an integer >= 1"):
            ProactiveHeuristicDropping(eta=eta)

    def test_integral_float_eta_accepted(self):
        assert ProactiveHeuristicDropping(eta=3.0).eta == 3

    def test_repr_mentions_parameters(self):
        text = repr(ProactiveHeuristicDropping(beta=2.0, eta=3))
        assert "2.0" in text and "3" in text


class TestDecisions:
    def test_empty_queue(self):
        policy = ProactiveHeuristicDropping()
        decision = policy.evaluate_queue(view([]))
        assert decision.drop_indices == ()

    def test_single_task_never_dropped(self):
        """The last task of a queue has an empty influence zone."""
        policy = ProactiveHeuristicDropping()
        decision = policy.evaluate_queue(view([entry(0, 50, 10)]))
        assert decision.drop_indices == ()

    def test_drops_hopeless_head_that_starves_queue(self):
        # Head takes 90 with deadline 50: it will start (0 < 50) but cannot
        # succeed, and it pushes two easy tasks past their deadlines.
        entries = [entry(0, 90, 50), entry(1, 10, 60), entry(2, 10, 70)]
        policy = ProactiveHeuristicDropping(beta=1.0, eta=2)
        decision = policy.evaluate_queue(view(entries))
        assert 0 in decision.drop_indices
        assert decision.robustness_after > decision.robustness_before

    def test_keeps_healthy_queue_untouched(self):
        entries = [entry(0, 10, 100), entry(1, 10, 120), entry(2, 10, 140)]
        policy = ProactiveHeuristicDropping()
        decision = policy.evaluate_queue(view(entries))
        assert decision.drop_indices == ()
        assert decision.robustness_before == pytest.approx(3.0)

    def test_does_not_drop_when_gain_insufficient(self):
        # Head has a decent chance (finishes exactly on time in half the
        # branches); dropping it would gain little for the successor.
        head = QueueEntry(task_id=0, exec_pmf=PMF.from_impulses([10, 30], [0.5, 0.5]),
                          deadline=20)
        tail = entry(1, 5, 100)
        policy = ProactiveHeuristicDropping(beta=1.0, eta=2)
        decision = policy.evaluate_queue(view([head, tail]))
        # keep window = p_head (0.5) + p_tail (1.0) = 1.5; drop window = 1.0.
        assert decision.drop_indices == ()

    def test_large_beta_makes_dropping_more_conservative(self):
        # Head has a small (0.2) chance of success; dropping it makes the
        # successor certain.  With beta=1 the trade is worth it (1.0 > 0.4);
        # with beta=4 the required improvement (1.6) is not met.
        head = QueueEntry(task_id=0,
                          exec_pmf=PMF.from_impulses([15, 100], [0.2, 0.8]),
                          deadline=50)
        tail = entry(1, 30, 70)
        entries = [head, tail]
        aggressive = ProactiveHeuristicDropping(beta=1.0, eta=2)
        conservative = ProactiveHeuristicDropping(beta=4.0, eta=2)
        assert aggressive.evaluate_queue(view(entries)).drop_indices == (0,)
        assert conservative.evaluate_queue(view(entries)).num_drops == 0
        never = ProactiveHeuristicDropping(beta=float("inf"), eta=2)
        assert never.evaluate_queue(view(entries)).num_drops == 0

    def test_eta_one_can_miss_deeper_gains(self):
        """The paper's argument for eta=2: with eta=1 a gain two positions
        behind the candidate is invisible."""
        # Task 0 is hopeless; task 1 succeeds either way; task 2 only
        # succeeds when task 0 is dropped.
        entries = [entry(0, 60, 50), entry(1, 5, 100), entry(2, 40, 100)]
        shallow = ProactiveHeuristicDropping(beta=1.0, eta=1)
        deeper = ProactiveHeuristicDropping(beta=1.0, eta=2)
        assert 0 not in shallow.evaluate_queue(view(entries)).drop_indices
        assert 0 in deeper.evaluate_queue(view(entries)).drop_indices

    def test_heuristic_is_suboptimal_on_collective_cases(self):
        """Section IV-D: only a collective (subset) view can see that dropping
        *both* big tasks rescues the tail; the per-task heuristic cannot,
        which is exactly the documented sub-optimality."""
        from repro.core.dropping import OptimalProactiveDropping

        entries = [entry(0, 80, 50), entry(1, 80, 60), entry(2, 10, 70),
                   entry(3, 10, 80)]
        heuristic = ProactiveHeuristicDropping(beta=1.0, eta=2)
        optimal = OptimalProactiveDropping()
        assert heuristic.evaluate_queue(view(entries)).num_drops == 0
        assert set(optimal.evaluate_queue(view(entries)).drop_indices) == {0, 1}

    def test_never_drops_last_position(self):
        entries = [entry(0, 10, 1000), entry(1, 999, 5)]
        policy = ProactiveHeuristicDropping()
        decision = policy.evaluate_queue(view(entries))
        assert 1 not in decision.drop_indices

    def test_decision_reports_robustness_values(self):
        entries = [entry(0, 90, 50), entry(1, 10, 60), entry(2, 10, 70)]
        decision = ProactiveHeuristicDropping().evaluate_queue(view(entries))
        assert decision.robustness_before == pytest.approx(0.0)
        assert decision.robustness_after == pytest.approx(2.0)


class TestStochasticQueues:
    def test_drop_indices_sorted_and_unique(self):
        exec_pmf = PMF.from_impulses([20, 60], [0.5, 0.5])
        entries = [QueueEntry(task_id=i, exec_pmf=exec_pmf, deadline=40 + 15 * i)
                   for i in range(5)]
        decision = ProactiveHeuristicDropping().evaluate_queue(view(entries))
        drops = list(decision.drop_indices)
        assert drops == sorted(set(drops))
        assert all(0 <= d < len(entries) for d in drops)

    def test_reported_robustness_matches_independent_recomputation(self):
        from repro.core.robustness import (instantaneous_robustness,
                                           instantaneous_robustness_with_drops)

        exec_pmf = PMF.from_impulses([30, 90], [0.5, 0.5])
        entries = [QueueEntry(task_id=i, exec_pmf=exec_pmf, deadline=60 + 20 * i)
                   for i in range(5)]
        v = view(entries)
        decision = ProactiveHeuristicDropping(beta=1.0, eta=2).evaluate_queue(v)
        assert decision.robustness_before == pytest.approx(
            instantaneous_robustness(v.base_pmf, entries))
        assert decision.robustness_after == pytest.approx(
            instantaneous_robustness_with_drops(v.base_pmf, entries,
                                                decision.drop_indices))
