"""Unit tests for the experiment configuration and trial runner."""

import pytest

from repro.experiments.config import ExperimentConfig, bench_config
from repro.experiments.runner import TrialSpec, run_trial


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert 0 < config.scale <= 1.0
        assert config.trials >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(scale=2.0)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(confidence=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_jobs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(batch_window=0)
        with pytest.raises(ValueError):
            ExperimentConfig(queue_capacity=0)

    def test_with_overrides(self):
        config = ExperimentConfig(trials=3)
        other = config.with_overrides(trials=5, scale=0.5)
        assert other.trials == 5 and other.scale == 0.5
        assert config.trials == 3  # original untouched

    def test_bench_config_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        monkeypatch.setenv("REPRO_BENCH_TRIALS", "4")
        monkeypatch.setenv("REPRO_BENCH_JOBS", "2")
        config = bench_config()
        assert config.scale == 0.02
        assert config.trials == 4
        assert config.n_jobs == 2

    def test_bench_config_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.02")
        config = bench_config(scale=0.05, trials=1)
        assert config.scale == 0.05 and config.trials == 1


class TestTrialSpec:
    def test_labels(self):
        spec = TrialSpec(scenario_name="spec", level="30k", scale=0.01, gamma=1.0,
                         queue_capacity=6, seed=0, mapper_name="PAM",
                         dropper_name="heuristic")
        assert spec.label == "PAM+Heuristic"
        react = TrialSpec(scenario_name="spec", level="30k", scale=0.01, gamma=1.0,
                          queue_capacity=6, seed=0, mapper_name="MM",
                          dropper_name="react")
        assert react.label == "MM+ReactDrop"

    def test_dropper_kwargs(self):
        spec = TrialSpec(scenario_name="spec", level="30k", scale=0.01, gamma=1.0,
                         queue_capacity=6, seed=0, mapper_name="PAM",
                         dropper_name="heuristic",
                         dropper_params=(("beta", 1.0), ("eta", 2)))
        assert spec.dropper_kwargs == {"beta": 1.0, "eta": 2}


class TestRunTrial:
    def make_spec(self, **kwargs):
        defaults = dict(scenario_name="spec", level="20k", scale=0.002, gamma=1.0,
                        queue_capacity=6, seed=1, mapper_name="PAM",
                        dropper_name="heuristic",
                        dropper_params=(("beta", 1.0), ("eta", 2)))
        defaults.update(kwargs)
        return TrialSpec(**defaults)

    def test_trial_produces_metrics(self):
        metrics = run_trial(self.make_spec())
        assert 0.0 <= metrics.robustness_pct <= 100.0
        assert metrics.num_mapping_events > 0
        assert metrics.cost is None

    def test_trial_with_cost(self):
        metrics = run_trial(self.make_spec(with_cost=True))
        assert metrics.cost is not None
        assert metrics.cost.total_cost >= 0.0

    def test_same_seed_same_result(self):
        a = run_trial(self.make_spec())
        b = run_trial(self.make_spec())
        assert a.robustness_pct == b.robustness_pct
        assert a.makespan == b.makespan

    def test_different_mappers_share_workload(self):
        """Configurations with the same seed simulate the same task stream."""
        a = run_trial(self.make_spec(mapper_name="MM"))
        b = run_trial(self.make_spec(mapper_name="MSD"))
        assert a.robustness.total_tasks == b.robustness.total_tasks


def run_cell(config, mapper, dropper, params=None):
    return config.plan(
        levels=["20k"], mappers=[mapper],
        droppers=[{"name": dropper, "params": params or {}}]
    ).execute().runs[0]


class TestRunConfiguration:
    def test_aggregates_requested_trials(self):
        config = ExperimentConfig(scale=0.002, trials=2, base_seed=5)
        result = run_cell(config, "PAM", "heuristic",
                                   {"beta": 1.0, "eta": 2})
        assert result.aggregate.num_trials == 2
        assert len(result.specs) == 2
        assert result.specs[0].seed == 5 and result.specs[1].seed == 6
        assert result.label == "PAM+Heuristic"

    def test_parallel_jobs_give_same_answer(self):
        serial = ExperimentConfig(scale=0.002, trials=2, base_seed=3, n_jobs=1)
        parallel = serial.with_overrides(n_jobs=2)
        a = run_cell(serial, "MM", "react")
        b = run_cell(parallel, "MM", "react")
        assert a.aggregate.robustness_pct.mean == pytest.approx(
            b.aggregate.robustness_pct.mean)
