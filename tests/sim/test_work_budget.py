"""Work budget: the deterministic work counters of the batch workloads.

Each batch configuration of the end-to-end benchmark runs once through
``run_trial`` on a small ``spec`` 40k trial, and its work counters are pinned
by equality: the ``PerfStats`` counters and the number of real Eq. 1 folds
(calls of ``repro.core.completion._fold``, the ones the memo did not answer).
Unlike wall time, these numbers do not depend on the host, so a change that
does more (or less) fold or scoring work shows here.  A change that lowers a
count updates its pin; one that raises a count says why.
"""

import pytest

from benchmarks.e2e.workloads import BATCH
from repro.core import completion
from repro.experiments.runner import TrialSpec, run_trial

#: (pmf_folds, fold_memo_hits, plane_evals, drop_evaluations, real folds)
#: of each batch configuration on ``spec`` 40k, scale 0.02, seed 1042.
#: ``pmf_folds`` counts the dropper's no-drop chain too, because the dropper
#: reads the machine's tail chain; the fold memo lives for one mapping event.
BUDGETS = {
    "batch-drop": (7_979, 841, 7_195, 4_457, 8_791),
    "batch-map": (4_050, 5_506, 63_262, 0, 19_773),
    "batch-churn": (7_905, 842, 7_543, 4_416, 14_490),
}


@pytest.fixture
def fold_calls(monkeypatch):
    calls = [0]
    real = completion._fold

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(completion, "_fold", counting)
    return calls


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_batch_work_budget(name, fold_calls):
    spec = TrialSpec(scenario_name="spec", level="40k", scale=0.02,
                     queue_capacity=6, seed=1042, **BATCH[name])
    perf = run_trial(spec).perf
    assert (perf.pmf_folds, perf.fold_memo_hits, perf.plane_evals,
            perf.drop_evaluations, fold_calls[0]) == BUDGETS[name]
