"""Persistent-pool sweep execution and cross-process PMF values.

The ``TrialPool`` executor must produce metrics identical to the sequential
path (trials cross a process boundary, so this exercises scenario shipping
through the pool initializer and PMF pickling), stream per-cell results as
they complete, and keep grid order in the returned structures.
"""

import functools
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import Simulation
from repro.experiments.runner import (TrialPool, TrialSpec,
                                      build_scenario_for_spec, run_trial,
                                      scenario_key)

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

    def test_pool_deduplicates_scenarios(self):
        specs = [_spec("PAM", "react"), _spec("MM", "react"),
                 _spec("PAM", "heuristic"), _spec("PAM", "react", seed=43)]
        with TrialPool(2, specs) as pool:
            assert len(pool.scenarios) == 2  # seeds 42 and 43


class TestScenarioSharding:
    def test_shards_partition_the_table(self):
        """Each scenario ships to exactly one shard, not to every worker."""
        specs = [_spec(seed=s) for s in (42, 42, 43, 43, 44, 45)]
        with TrialPool(2, specs) as pool:
            assert len(pool.shard_tables) == 2
            assert sum(pool.shard_workers) == 2
            keys = [set(table) for table in pool.shard_tables]
            assert keys[0].isdisjoint(keys[1])
            assert keys[0] | keys[1] == set(pool.scenarios)
            # Bounded shipping: no shard holds the whole table.
            assert all(len(table) < len(pool.scenarios)
                       for table in pool.shard_tables)

    def test_workers_follow_trial_load(self):
        """Few scenario groups with many trials keep multi-worker shards."""
        specs = [_spec(seed=42) for _ in range(6)] + [_spec(seed=43)]
        with TrialPool(4, specs) as pool:
            assert sum(pool.shard_workers) == 4
            assert len(pool.shard_tables) == 2
            # The seed-42 group carries 6 of 7 trials; its shard must get
            # the extra workers.
            heavy = max(range(2), key=lambda i: pool.shard_workers[i])
            assert scenario_key(_spec(seed=42)) in pool.shard_tables[heavy]

    def test_unknown_scenarios_still_run(self):
        """Specs outside the constructor table fall back to worker builds."""
        known = [_spec(seed=42)]
        with TrialPool(2, known) as pool:
            surprise = _spec(seed=99)
            pooled = pool.run_cells([[known[0], surprise]])[0]
        assert pooled == [run_trial(known[0]), run_trial(surprise)]

    def test_sharded_pool_matches_sequential_across_shards(self):
        specs = [_spec(seed=42), _spec(seed=43), _spec("MM", seed=42),
                 _spec("MM", seed=43)]
        sequential = [run_trial(s) for s in specs]
        with TrialPool(2, specs) as pool:
            pooled = pool.run_cells([specs])[0]
        assert pooled == sequential


class TestTrialPool:
    def test_pool_matches_sequential(self):
        specs = [_spec(seed=42), _spec(seed=43), _spec("MM", seed=42)]
        sequential = [run_trial(s) for s in specs]
        with TrialPool(2, specs) as pool:
            pooled = pool.run_cells([specs])[0]
        assert pooled == sequential

    def test_run_cells_streams_and_keeps_grid_order(self):
        cells = [[_spec(seed=42)], [_spec("MM", seed=42), _spec("MM", seed=43)]]
        seen = []
        with TrialPool(2, [s for cell in cells for s in cell]) as pool:
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
