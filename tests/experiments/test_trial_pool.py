"""Persistent-pool sweep execution and cross-process PMF values.

The ``TrialPool`` executor must produce metrics identical to ``run_trial``
on any worker count (trials cross a process boundary; trials are queued
scenario by scenario and each worker builds the scenarios it meets, holding
one at a time), stream per-cell results as they complete, and keep grid
order in the returned structures.
"""

import functools
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import Simulation
from repro.experiments import runner
from repro.experiments.runner import (TrialPool, TrialSpec,
                                      build_scenario_for_spec, run_trial,
                                      scenario_key, trial_order)

SCALE = 0.002  # ~40-60 tasks: heavily oversubscribed yet fast


def _spec(mapper="PAM", dropper="react", seed=42, **kwargs):
    return TrialSpec(scenario_name="spec", level="30k", scale=SCALE,
                     gamma=1.0, queue_capacity=6, seed=seed,
                     mapper_name=mapper, dropper_name=dropper, **kwargs)


class TestScenarioSharing:
    def test_key_ignores_mapper_and_dropper(self):
        assert scenario_key(_spec("PAM", "react")) == scenario_key(
            _spec("MM", "heuristic"))
        assert scenario_key(_spec(seed=42)) != scenario_key(_spec(seed=43))

    def test_run_trial_with_prebuilt_scenario_matches(self):
        spec = _spec()
        scenario = build_scenario_for_spec(spec)
        assert run_trial(spec, scenario=scenario) == run_trial(spec)

    def test_scenario_reuse_across_trials_is_stateless(self):
        spec = _spec()
        scenario = build_scenario_for_spec(spec)
        first = run_trial(spec, scenario=scenario)
        second = run_trial(spec, scenario=scenario)
        assert first == second

    def test_pool_deduplicates_scenarios(self, monkeypatch):
        """A sequential sweep builds each scenario once, whatever the cell."""
        calls = _counting_builds(monkeypatch)
        cells = [[_spec(mapper, seed=seed) for seed in (42, 43, 44)]
                 for mapper in ("PAM", "MM")]
        with TrialPool(1) as pool:
            pool.run_cells(cells)
        assert calls == [scenario_key(cells[0][k]) for k in range(3)]


def _counting_builds(monkeypatch):
    """Count this process's ``build_scenario_for_spec`` calls."""
    calls = []
    build = runner.build_scenario_for_spec

    def counted(spec):
        calls.append(scenario_key(spec))
        return build(spec)

    monkeypatch.setattr(runner, "build_scenario_for_spec", counted)
    return calls


def _worker_slot_key():
    return runner._WORKER_SLOT.key


class TestSharedQueue:
    def test_pool_matches_run_trial_on_every_worker_count(self):
        """Trials of three scenario groups, in any worker, give run_trial's
        metrics in grid order."""
        cells = [[_spec(mapper, seed=seed) for seed in (42, 43, 44)]
                 for mapper in ("PAM", "MM")]
        expected = [[run_trial(spec) for spec in cell] for cell in cells]
        for n_jobs in (1, 2, 3):
            with TrialPool(n_jobs) as pool:
                assert pool.run_cells(cells) == expected

    def test_unknown_scenarios_still_run(self):
        """The pool knows no scenario up front; workers build from specs."""
        specs = [_spec(seed=97), _spec(seed=98), _spec(seed=99)]
        with TrialPool(2) as pool:
            pooled = pool.run_cells([specs])[0]
        assert pooled == [run_trial(spec) for spec in specs]

    def test_parent_builds_no_scenario(self, monkeypatch):
        """A parallel sweep ships specs only; the workers build and the
        parent is left holding no scenario."""
        calls = _counting_builds(monkeypatch)
        sweep = (Simulation.scenario("spec").scale(SCALE)
                 .trials(2, base_seed=42).parallel(2)
                 .sweep(mapper=["PAM", "MM"], dropper=["react"]))
        assert calls == []
        assert [len(run.trials) for run in sweep] == [2, 2]
        assert runner._WORKER_SLOT.key is None

    def test_trial_order_keeps_each_scenario_adjacent(self):
        """Cells sharing seeds interleave trial by trial; a second scenario
        family (another scale) follows the first, whatever the cell order."""
        cells = [[_spec(mapper, seed=seed, **extra) for seed in (42, 43)]
                 for mapper in ("PAM", "MM")
                 for extra in ({}, {"scenario_params": (("num_machines", 4),)})]
        order = trial_order(cells)
        assert order == [(0, 0), (2, 0), (0, 1), (2, 1),
                         (1, 0), (3, 0), (1, 1), (3, 1)]
        keys = [scenario_key(cells[ci][ti]) for ci, ti in order]
        assert len(set(keys)) == 4
        # Each key forms one run: a taker never returns to a scenario.
        assert [k for i, k in enumerate(keys)
                if i == 0 or k != keys[i - 1]] == list(dict.fromkeys(keys))

    def test_worker_holds_one_scenario(self, monkeypatch):
        """A taker of the trial order builds each scenario once and holds
        only the current one."""
        calls = _counting_builds(monkeypatch)
        cells = [[_spec(mapper, seed=seed) for seed in (42, 43, 44, 45)]
                 for mapper in ("PAM", "MM", "MSD")]
        slot = runner._ScenarioSlot()
        for ci, ti in trial_order(cells):
            slot.run(cells[ci][ti])
        assert calls == [scenario_key(spec) for spec in cells[0]]
        assert slot.key == scenario_key(cells[0][-1])
        # A pool worker runs its queue items through the same one slot.
        with ProcessPoolExecutor(max_workers=1) as pool:
            for ci, ti in trial_order(cells):
                pool.submit(runner._run_in_worker, cells[ci][ti]).result()
            assert pool.submit(_worker_slot_key).result() == slot.key

    def test_single_job_runs_in_process(self):
        with TrialPool(1) as pool:
            assert pool._pool is None
            cells = [[_spec(seed=42), _spec(seed=43)], [_spec("MM", seed=42)]]
            seen = []
            results = pool.run_cells(cells, on_cell=lambda i, m: seen.append(i))
        assert seen == [1, 0]  # cell 1 ends with seed 42, cell 0 with 43
        assert results == [[run_trial(spec) for spec in cell]
                           for cell in cells]


class TestTrialPool:
    def test_pool_matches_sequential(self):
        specs = [_spec(seed=42), _spec(seed=43), _spec("MM", seed=42)]
        sequential = [run_trial(s) for s in specs]
        with TrialPool(2) as pool:
            pooled = pool.run_cells([specs])[0]
        assert pooled == sequential

    def test_run_cells_streams_and_keeps_grid_order(self):
        cells = [[_spec(seed=42)], [_spec("MM", seed=42), _spec("MM", seed=43)]]
        seen = []
        with TrialPool(2) as pool:
            results = pool.run_cells(cells,
                                     on_cell=lambda i, m: seen.append(i))
        assert sorted(seen) == [0, 1]
        assert len(results) == 2
        assert len(results[0]) == 1 and len(results[1]) == 2
        assert results[0][0] == run_trial(cells[0][0])

    def test_results_do_not_depend_on_pmf_identity(self):
        """A reloaded scenario holds new PMF objects with equal values; the
        identity-keyed caches must give the same metrics on it, in this
        process and on two workers."""
        specs = [_spec(dropper="heuristic"), _spec("MM", "heuristic")]
        scenario = build_scenario_for_spec(specs[0])
        reloaded = pickle.loads(pickle.dumps(scenario))
        pmf, copy = scenario.pet.pmf(0, 0), reloaded.pet.pmf(0, 0)
        assert copy is not pmf
        assert copy.origin == pmf.origin
        assert copy.probs.tobytes() == pmf.probs.tobytes()
        expected = [run_trial(spec, scenario=scenario) for spec in specs]
        assert [run_trial(spec, scenario=reloaded)
                for spec in specs] == expected
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = list(pool.map(
                functools.partial(run_trial, scenario=reloaded), specs))
        assert pooled == expected


class TestSweepIntegration:
    @pytest.fixture(scope="class")
    def base(self):
        return Simulation.scenario("spec").scale(SCALE).trials(2, base_seed=42)

    def test_parallel_sweep_matches_sequential(self, base):
        grid = {"mapper": ["PAM", "MM"], "dropper": ["react"]}
        # A plain run is a one-cell sweep through the same executor.
        for execute in (lambda sim: list(sim.sweep(**grid)),
                        lambda sim: [sim.run()]):
            sequential = execute(base)
            parallel = execute(base.parallel(2))
            assert [r.label for r in sequential] == \
                [r.label for r in parallel]
            for s, p in zip(sequential, parallel):
                assert s.trials == p.trials
        assert base.run().trials == base.build_plan().execute().runs[0].trials
        assert base.run(label="custom").label == "custom"

    def test_sweep_streams_results(self, base):
        streamed = []
        result = base.parallel(2).sweep(
            on_result=streamed.append, mapper=["PAM", "MM"],
            dropper=["react"])
        assert sorted(r.label for r in streamed) == sorted(
            r.label for r in result)

    def test_sweep_perf_counters_populated(self, base):
        result = base.parallel(2).sweep(mapper=["PAM"], dropper=["react",
                                                                 "heuristic"])
        perf = result.perf
        assert perf is not None
        assert perf.pmf_folds > 0
        assert perf.fold_memo_hits > 0
        assert "interned" in result.to_dict()["perf"]
