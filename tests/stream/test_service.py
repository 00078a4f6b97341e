"""Tests of the streaming driver: chunk invariance, specs, lifecycle."""

from dataclasses import dataclass

import pytest

from repro.stream import StreamSpec, StreamingSimulation


def comparable(service):
    """The chunking-invariant view of a service: metrics + timeline.

    ``TrialMetrics.perf`` and ``WindowStats.perf`` are ``compare=False``,
    so equality here is exactly the bit-identity the module guarantees.
    """
    return service.metrics(), service.timeline()


class TestStreamSpec:
    def test_round_trip(self):
        spec = StreamSpec(traffic_name="burst", seed=9,
                          traffic_params={"burst_multiplier": 6.0},
                          dropper_params={"beta": 1.0})
        again = StreamSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_dict_params_frozen(self):
        spec = StreamSpec(dropper_params={"beta": 2.0, "alpha": 1.0})
        assert spec.dropper_params == (("alpha", 1.0), ("beta", 2.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown StreamSpec"):
            StreamSpec.from_dict({"traffic": "steady"})

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(oversubscription=0.0)
        with pytest.raises(ValueError):
            StreamSpec(gamma=-1.0)
        with pytest.raises(ValueError):
            StreamSpec(metrics_window=0)
        with pytest.raises(ValueError):
            StreamSpec(metrics_decay=0.0)

    def test_label(self):
        assert StreamSpec().label == "steady/PAM+heuristic"


class TestLifecycle:
    def test_run_until_advances_and_chains(self):
        service = StreamingSimulation(StreamSpec(seed=1))
        assert service.run_until(1_000) is service
        assert service.horizon == 1_000
        assert service.now == 1_000
        service.run_for(500)
        assert service.horizon == 1_500

    def test_running_backwards_rejected(self):
        service = StreamingSimulation(StreamSpec(seed=1)).run_until(1_000)
        with pytest.raises(ValueError, match="backwards"):
            service.run_until(500)

    def test_run_for_negative_rejected(self):
        with pytest.raises(ValueError):
            StreamingSimulation(StreamSpec(seed=1)).run_for(-1)

    def test_invalid_chunk_tasks_rejected(self):
        with pytest.raises(ValueError):
            StreamingSimulation(StreamSpec(seed=1), chunk_tasks=0)

    def test_tasks_flow_and_metrics_accumulate(self):
        service = StreamingSimulation(StreamSpec(seed=1)).run_until(3_000)
        metrics = service.metrics()
        assert metrics.robustness.total_tasks > 100
        assert len(service.timeline()) == 6  # 3000 / 500 default window
        assert "steady/PAM+heuristic" in service.describe()

    def test_on_window_callback(self):
        seen = []
        service = StreamingSimulation(StreamSpec(seed=1),
                                      on_window=seen.append)
        service.run_until(1_500)
        assert [w.end for w in seen] == [500, 1_000, 1_500]

    def test_window_perf_has_no_derived_rates(self):
        # A difference of two cumulative ratios is not a rate: windows
        # carry counter deltas only.
        service = StreamingSimulation(StreamSpec(seed=1)).run_until(1_500)
        windows = service.timeline().to_dict()["windows"]
        assert windows
        for window in windows:
            perf = window["perf"]
            assert perf and "pmf_folds" in perf
            assert "tail_cache_hit_rate" not in perf
            assert "intern_hit_rate" not in perf


class TestChunkInvariance:
    def test_chunk_size_invariant(self):
        spec = StreamSpec(seed=3)
        small = StreamingSimulation(spec, chunk_tasks=7).run_until(4_000)
        large = StreamingSimulation(spec, chunk_tasks=4_096).run_until(4_000)
        assert comparable(small) == comparable(large)

    def test_horizon_sequence_invariant(self):
        spec = StreamSpec(seed=3)
        stepped = StreamingSimulation(spec)
        for t in (500, 1_234, 2_200, 4_000):
            stepped.run_until(t)
        one_shot = StreamingSimulation(spec).run_until(4_000)
        assert comparable(stepped) == comparable(one_shot)

    def test_burst_traffic_invariant(self):
        spec = StreamSpec(traffic_name="burst", seed=4,
                          traffic_params={"burst_period": 1_000,
                                          "burst_length": 200})
        stepped = StreamingSimulation(spec, chunk_tasks=17)
        for t in (700, 1_700, 3_000):
            stepped.run_until(t)
        one_shot = StreamingSimulation(spec).run_until(3_000)
        assert comparable(stepped) == comparable(one_shot)

    def test_matches_batch_seed_discipline(self):
        # Streaming splits its seed exactly like the batch runner: the
        # execution-sampling stream is offset so scenario generation and
        # sampling never alias.  Two services sharing a seed see identical
        # arrivals; different seeds diverge.
        spec = StreamSpec(seed=5)
        a = StreamingSimulation(spec).run_until(2_000)
        b = StreamingSimulation(spec).run_until(2_000)
        assert comparable(a) == comparable(b)
        c = StreamingSimulation(StreamSpec(seed=6)).run_until(2_000)
        assert comparable(c) != comparable(a)


@dataclass(frozen=True)
class NaiveStreamSpec(StreamSpec):
    """A service spec with the naive engine: ``build_system`` reads the
    engine switch off any spec that declares it."""

    incremental: bool = False


class TestIncrementalEquivalence:
    def test_incremental_matches_naive_and_folds_less(self):
        # The service drives the same scheduler views as a batch trial, so
        # the incremental caches must reproduce the naive recomputation
        # bit for bit while folding fewer chains.
        services = []
        for spec_type in (NaiveStreamSpec, StreamSpec):
            service = StreamingSimulation(spec_type(
                scenario_name="spec", traffic_name="steady", seed=42,
                mapper_name="PAM", dropper_name="heuristic"))
            service.run_until(round(30_000 * 0.002 / service.arrival_rate))
            services.append(service)
        naive, incremental = services
        assert not naive.system.config.incremental
        assert comparable(incremental) == comparable(naive)
        assert (incremental.system.perf.pmf_folds
                < naive.system.perf.pmf_folds)


class TestUncertaintyInStream:
    def test_uncertainty_changes_outcomes(self):
        base = StreamingSimulation(StreamSpec(seed=2)).run_until(3_000)
        noisy = StreamingSimulation(StreamSpec(
            seed=2, uncertainty_name="network_latency",
            uncertainty_params={"mean_latency": 30.0})).run_until(3_000)
        assert comparable(noisy) != comparable(base)
