"""Dropping policies and queue chains fold through the installed folder.

Under ``active_folder`` every Eq. 1 fold a policy makes is served by the
run's ``ChainFolder`` memo, so evaluating the same queue view a second time
must not run the fold arithmetic (``repro.core.completion._fold``) at all.
"""

import pytest

from repro.api import DROPPERS
from repro.core import completion
from repro.core.completion import (ChainFolder, QueueEntry, active_folder,
                                   queue_completion_pmfs)
from repro.core.dropping import MachineQueueView
from repro.core.pmf import PMF


def _view():
    execs = [PMF(3, [0.2, 0.5, 0.3]), PMF(2, [0.6, 0.4]),
             PMF(4, [0.1, 0.3, 0.4, 0.2])]
    entries = [QueueEntry(task_id=i, exec_pmf=execs[i % 3], deadline=d)
               for i, d in enumerate((9, 12, 14, 17, 21))]
    return MachineQueueView(machine_id=0, now=0,
                            base_pmf=PMF(2, [0.25, 0.5, 0.25]),
                            entries=entries, pressure=0.5)


@pytest.fixture
def fold_calls(monkeypatch):
    calls = []
    real = completion._fold

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(completion, "_fold", counting)
    return calls


def _evaluations(name):
    if name == "queue_completion_pmfs":
        return lambda view: queue_completion_pmfs(view.base_pmf, view.entries)
    return DROPPERS.create(name).evaluate_queue


@pytest.mark.parametrize("name", ["heuristic", "threshold",
                                  "threshold-adaptive", "optimal",
                                  "queue_completion_pmfs"])
def test_second_evaluation_is_all_memo_hits(name, fold_calls):
    evaluate = _evaluations(name)
    view = _view()
    folder = ChainFolder()
    with active_folder(folder):
        first = evaluate(view)
        folds = len(fold_calls)
        second = evaluate(view)
    assert folds > 0
    assert len(fold_calls) == folds
    assert folder.memo_hits > 0
    assert second == first
