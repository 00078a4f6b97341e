"""Unit tests for arrival processes, capacity helpers and deadline assignment."""

import numpy as np
import pytest

from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.workload.arrivals import (PoissonArrivals, rate_for_oversubscription,
                                     system_capacity)
from repro.workload.deadlines import PaperDeadlinePolicy


def make_pet(mean=100):
    return PETMatrix(("t0",), ("m0",), {(0, 0): PMF.delta(mean)})


class TestCapacity:
    def test_system_capacity(self):
        pet = make_pet(mean=100)
        assert system_capacity(pet, num_machines=8) == pytest.approx(0.08)

    def test_capacity_requires_machines(self):
        with pytest.raises(ValueError):
            system_capacity(make_pet(), num_machines=0)

    def test_rate_for_oversubscription(self):
        pet = make_pet(mean=100)
        rate = rate_for_oversubscription(pet, num_machines=4, oversubscription=2.0)
        assert rate == pytest.approx(0.08)
        with pytest.raises(ValueError):
            rate_for_oversubscription(pet, 4, 0.0)


class TestPoissonArrivals:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(rate=1.0, start_time=-5)

    def test_generates_sorted_non_negative_times(self):
        process = PoissonArrivals(rate=0.05, start_time=10)
        times = process.generate(200, np.random.default_rng(0))
        assert len(times) == 200
        assert all(isinstance(t, int) for t in times)
        assert times == sorted(times)
        assert times[0] >= 10

    def test_rate_controls_density(self):
        rng = np.random.default_rng(1)
        slow = PoissonArrivals(rate=0.01).generate(500, rng)
        rng = np.random.default_rng(1)
        fast = PoissonArrivals(rate=0.1).generate(500, rng)
        assert fast[-1] < slow[-1]

    def test_empirical_rate_close_to_nominal(self):
        process = PoissonArrivals(rate=0.05)
        times = process.generate(5000, np.random.default_rng(2))
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(0.05, rel=0.1)

    def test_zero_tasks(self):
        assert PoissonArrivals(rate=1.0).generate(0, np.random.default_rng(0)) == []
        with pytest.raises(ValueError):
            PoissonArrivals(rate=1.0).generate(-1, np.random.default_rng(0))

    def test_expected_duration(self):
        assert PoissonArrivals(rate=0.1).expected_duration(100) == pytest.approx(1000.0)


class TestPaperDeadlinePolicy:
    def test_formula(self):
        # PET with one task type: avg_i = avg_all = 100.
        pet = make_pet(mean=100)
        policy = PaperDeadlinePolicy(gamma=2.0)
        assert policy.deadline(arrival=50, task_type=0, pet=pet) == 50 + 100 + 200

    def test_uses_type_specific_mean(self):
        entries = {(0, 0): PMF.delta(50), (1, 0): PMF.delta(150)}
        pet = PETMatrix(("a", "b"), ("m0",), entries)
        policy = PaperDeadlinePolicy(gamma=1.0)
        # avg_all = 100
        assert policy.deadline(0, 0, pet) == 0 + 50 + 100
        assert policy.deadline(0, 1, pet) == 0 + 150 + 100

    def test_deadline_always_after_arrival(self):
        pet = make_pet(mean=1)
        policy = PaperDeadlinePolicy(gamma=0.0)
        assert policy.deadline(arrival=10, task_type=0, pet=pet) > 10

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            PaperDeadlinePolicy(gamma=-0.5)

    @pytest.mark.parametrize("gamma", [float("inf"), float("nan")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a finite number"):
            PaperDeadlinePolicy(gamma=gamma)

    def test_larger_gamma_looser_deadlines(self):
        pet = make_pet(mean=100)
        tight = PaperDeadlinePolicy(gamma=0.5).deadline(0, 0, pet)
        loose = PaperDeadlinePolicy(gamma=3.0).deadline(0, 0, pet)
        assert loose > tight
