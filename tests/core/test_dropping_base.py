"""Unit tests for dropping-policy plumbing: views, decisions, reactive helpers."""

import pytest

from repro.core.completion import QueueEntry
from repro.core.dropping import (DropDecision, MachineQueueView,
                                 NoProactiveDropping, expired_indices, has_expired)
from repro.core.pmf import PMF


def entry(task_id, deadline):
    return QueueEntry(task_id=task_id, exec_pmf=PMF.delta(10), deadline=deadline)


class TestMachineQueueView:
    def test_queue_length(self):
        view = MachineQueueView(machine_id=1, now=0, base_pmf=PMF.delta(0),
                                entries=(entry(0, 50), entry(1, 60)))
        assert view.queue_length == 2

    def test_entries_are_immutable_tuple(self):
        view = MachineQueueView(machine_id=1, now=0, base_pmf=PMF.delta(0),
                                entries=[entry(0, 50)])
        assert isinstance(view.entries, tuple)

    def test_default_pressure(self):
        view = MachineQueueView(machine_id=1, now=0, base_pmf=PMF.delta(0))
        assert view.pressure == 0.0
        assert view.queue_length == 0


class TestDropDecision:
    def test_indices_sorted(self):
        decision = DropDecision(drop_indices=[3, 1, 2])
        assert decision.drop_indices == (1, 2, 3)
        assert decision.num_drops == 3

    def test_defaults(self):
        decision = DropDecision()
        assert decision.num_drops == 0
        assert decision.robustness_before != decision.robustness_before  # NaN


class TestNoProactiveDropping:
    def test_never_drops(self):
        policy = NoProactiveDropping()
        view = MachineQueueView(machine_id=0, now=0, base_pmf=PMF.delta(0),
                                entries=(entry(0, 1), entry(1, 2)))
        assert policy.evaluate_queue(view).drop_indices == ()

    def test_name(self):
        assert NoProactiveDropping().name == "react-only"


class TestReactiveHelpers:
    def test_has_expired(self):
        assert has_expired(deadline=10, now=10)
        assert has_expired(deadline=10, now=11)
        assert not has_expired(deadline=10, now=9)

    def test_expired_indices(self):
        entries = [entry(0, 5), entry(1, 50), entry(2, 7)]
        assert expired_indices(entries, now=10) == [0, 2]
        assert expired_indices(entries, now=0) == []
        assert expired_indices([], now=100) == []
