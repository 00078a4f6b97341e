"""Resume semantics: a killed sweep resumed from its spool is bit-identical."""

import json
import re

import pytest

from repro.api import (ExperimentPlan, JsonlSpoolSink, MemorySink, SpoolError,
                       read_spool)

TINY = 0.002


@pytest.fixture()
def plan() -> ExperimentPlan:
    return ExperimentPlan(name="resume-grid", levels=["20k"], scales=[TINY],
                          mappers=["PAM", "MM"],
                          droppers=["heuristic", "react"],
                          trials=2, base_seed=5, with_cost=True)


class _Bomb(Exception):
    pass


def _interrupt_after(n):
    """A sink callback raising after n cells (simulates a mid-grid kill)."""
    state = {"count": 0}

    def on_result(run):
        state["count"] += 1
        if state["count"] >= n:
            raise _Bomb()

    return on_result


def test_killed_sweep_resumes_bit_identical(plan, tmp_path):
    spool = str(tmp_path / "sweep.jsonl")
    full = plan.execute()

    # Kill the sweep after two completed cells: the exception propagates,
    # but those cells are already flushed to the spool.
    with pytest.raises(_Bomb):
        plan.run_spooled(spool, sink=_interrupt_after(2))
    _, cells = read_spool(spool)
    assert len(cells) == 2

    sink = MemorySink()
    resumed = plan.resume(spool, sink=sink)
    assert len(resumed) == len(full) == 4

    # Bit-identical TrialMetrics (perf counters are compare-excluded by
    # design), identical aggregates, labels, configs and specs.
    assert [r.trials for r in resumed] == [r.trials for r in full]
    assert [r.aggregate for r in resumed] == [r.aggregate for r in full]
    assert [r.label for r in resumed] == [r.label for r in full]
    assert [dict(r.config) for r in resumed] == \
        [dict(r.config) for r in full]
    assert [r.specs for r in resumed] == [r.specs for r in full]

    # Two cells replayed from the spool, two executed fresh.
    assert sorted(sink.restored) == [False, False, True, True]

    # The spool now holds the whole grid exactly once.
    _, cells = read_spool(spool)
    assert sorted(cells) == [0, 1, 2, 3]


def test_resume_of_complete_spool_runs_nothing(plan, tmp_path):
    spool = str(tmp_path / "sweep.jsonl")
    full = plan.run_spooled(spool)
    sink = MemorySink()
    again = plan.resume(spool, sink=sink)
    assert sink.restored == [True] * 4
    assert [r.trials for r in again] == [r.trials for r in full]


def test_cost_and_inf_survive_the_spool(tmp_path):
    # A gamma-0 run drops everything: cost_per_completed_pct is infinite,
    # which the JSON spool must carry losslessly.
    plan = ExperimentPlan(levels=["20k"], scales=[TINY], gammas=[0.0],
                          mappers=["PAM"], droppers=["react"], trials=1,
                          with_cost=True)
    spool = str(tmp_path / "inf.jsonl")
    full = plan.run_spooled(spool)
    resumed = plan.resume(spool)
    assert [r.trials for r in resumed] == [r.trials for r in full]


def test_plan_recoverable_from_spool_header(plan, tmp_path):
    spool = str(tmp_path / "sweep.jsonl")
    plan.run_spooled(spool, max_cells=1)
    recovered = ExperimentPlan.from_spool(spool)
    assert recovered == plan
    assert recovered.fingerprint() == plan.fingerprint()


def test_mismatched_plan_rejected(plan, tmp_path):
    import dataclasses

    spool = str(tmp_path / "sweep.jsonl")
    plan.run_spooled(spool, max_cells=1)
    other = dataclasses.replace(plan, base_seed=6)
    with pytest.raises(SpoolError, match="different plan"):
        other.resume(spool)
    # n_jobs is execution-only: resuming with another worker count is fine.
    rescaled = dataclasses.replace(plan, n_jobs=2)
    result = rescaled.resume(spool, n_jobs=1)
    assert len(result) == 4


def test_missing_and_malformed_spools_rejected(plan, tmp_path):
    with pytest.raises(SpoolError, match="does not exist"):
        plan.resume(str(tmp_path / "nope.jsonl"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    with pytest.raises(SpoolError):
        plan.resume(str(bad))

    # Valid JSON of the wrong shape names the line or cell and the bad key
    # or type instead of escaping as an AttributeError/KeyError/TypeError.
    good = tmp_path / "good.jsonl"
    plan.run_spooled(str(good), max_cells=1)
    header, cell = good.read_text(encoding="utf-8").splitlines()
    record = json.loads(cell)
    trials = record["trials"]

    def edited(**changes):
        return json.dumps({**record, **changes})

    def first_trial(section, key, value):
        trial = json.loads(json.dumps(trials[0]))
        trial[section][key] = value
        return edited(trials=[trial] + trials[1:])

    no_trials = {k: v for k, v in record.items() if k != "trials"}
    cases = [
        (["[1]", cell], "line 1 is a JSON list, not an object"),
        ([header, cell, "[1,2,3]"], "line 3 is a JSON list, not an object"),
        ([header, json.dumps(no_trials)], "line 2 has no 'trials'"),
        ([header, edited(trials=5)],
         "line 2: 'trials' must be a list of trial objects, got int"),
        ([header, edited(trials=[5] * len(trials))],
         "line 2: 'trials' must be a list of trial objects, one is int"),
        ([header, edited(index="0")],
         "line 2: 'index' must be an integer, got str"),
        ([header, edited(trials=[{}] * len(trials))],
         "line 2: trials[0] is missing key 'robustness'"),
        # Trial values are checked against their fields before any cell
        # runs, naming the line and the path.
        ([header, first_trial("perf", "pmf_folds", "x")],
         "line 2: trials[0].perf.pmf_folds must be an integer, got 'x'"),
        ([header, first_trial("drops", "reactive", 2.5)],
         "line 2: trials[0].drops.reactive must be an integer, got 2.5"),
        ([header, first_trial("perf", "bogus", 1)],
         "line 2: unknown trials[0].perf key(s) 'bogus'"),
    ]
    for lines, message in cases:
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SpoolError,
                           match=re.escape(f"{str(bad)!r} {message}")):
            plan.resume(str(bad))


def test_truncated_trailing_line_ignored(plan, tmp_path):
    spool = str(tmp_path / "sweep.jsonl")
    plan.run_spooled(spool, max_cells=2)
    # Simulate a kill mid-write: append half a JSON record.
    with open(spool, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "cell", "index": 2, "tri')
    full = plan.execute()
    resumed = plan.resume(spool)
    assert [r.trials for r in resumed] == [r.trials for r in full]


def test_incomplete_cell_reruns(plan, tmp_path):
    # A cell spooled with fewer trials than the plan demands (e.g. written
    # by a buggy/older run) is re-executed rather than trusted.
    spool = str(tmp_path / "sweep.jsonl")
    plan.run_spooled(spool, max_cells=1)
    header, cells = read_spool(spool)
    lines = [json.dumps(header, sort_keys=True)]
    for index, trials in cells.items():
        lines.append(json.dumps({"kind": "cell", "index": index,
                                 "label": "x", "trials": trials[:1]},
                                sort_keys=True))
    with open(spool, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    full = plan.execute()
    resumed = plan.resume(spool)
    assert [r.trials for r in resumed] == [r.trials for r in full]
    # The re-run cell's fresh result must be appended (the short record is
    # stale), so the spool *converges*: the next resume restores everything
    # and re-executes nothing.
    _, repaired = read_spool(spool)
    assert all(len(trials) == plan.trials for trials in repaired.values())
    sink = MemorySink()
    plan.resume(spool, sink=sink)
    assert sink.restored == [True] * 4


def test_spool_sink_rejects_foreign_plan(plan, tmp_path):
    import dataclasses

    spool = str(tmp_path / "sweep.jsonl")
    plan.run_spooled(spool, max_cells=1)
    sink = JsonlSpoolSink(spool)
    with pytest.raises(SpoolError, match="different plan"):
        sink.open(dataclasses.replace(plan, trials=3))
