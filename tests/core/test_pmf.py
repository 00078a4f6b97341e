"""Unit tests for the discrete PMF type."""

import numpy as np
import pytest

from repro.core.pmf import EMPTY_PMF, PMF


class TestConstruction:
    def test_basic_construction(self):
        pmf = PMF(5, [0.2, 0.3, 0.5])
        assert pmf.origin == 5
        assert pmf.total_mass == pytest.approx(1.0)
        assert pmf.min_time == 5
        assert pmf.max_time == 7

    def test_trims_leading_and_trailing_zeros(self):
        pmf = PMF(10, [0.0, 0.0, 0.4, 0.6, 0.0])
        assert pmf.origin == 12
        assert pmf.max_time == 13
        assert pmf.probs.size == 2

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValueError):
            PMF(0, [0.5, -0.1, 0.6])

    def test_mass_above_one_rejected(self):
        with pytest.raises(ValueError):
            PMF(0, [0.8, 0.5])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            PMF(0, np.ones((2, 2)) / 4)

    def test_delta(self):
        pmf = PMF.delta(42)
        assert pmf.prob_at(42) == pytest.approx(1.0)
        assert pmf.mean() == pytest.approx(42.0)
        assert pmf.support_size == 1

    def test_empty(self):
        pmf = PMF.empty()
        assert pmf.is_empty
        assert pmf.total_mass == 0.0
        assert EMPTY_PMF.is_empty

    def test_from_impulses(self):
        pmf = PMF.from_impulses([3, 7, 5], [0.2, 0.5, 0.3])
        assert pmf.prob_at(3) == pytest.approx(0.2)
        assert pmf.prob_at(5) == pytest.approx(0.3)
        assert pmf.prob_at(7) == pytest.approx(0.5)
        assert pmf.prob_at(4) == 0.0

    def test_from_impulses_accumulates_duplicates(self):
        pmf = PMF.from_impulses([2, 2, 4], [0.25, 0.25, 0.5])
        assert pmf.prob_at(2) == pytest.approx(0.5)

    def test_from_impulses_length_mismatch(self):
        with pytest.raises(ValueError):
            PMF.from_impulses([1, 2], [0.5])

    def test_from_impulses_empty(self):
        assert PMF.from_impulses([], []).is_empty

    def test_probs_are_read_only(self):
        pmf = PMF(0, [0.5, 0.5])
        with pytest.raises(ValueError):
            pmf.probs[0] = 1.0


class TestFromSamples:
    def test_simple_samples(self):
        pmf = PMF.from_samples([10, 10, 20, 20])
        assert pmf.prob_at(10) == pytest.approx(0.5)
        assert pmf.prob_at(20) == pytest.approx(0.5)
        assert pmf.total_mass == pytest.approx(1.0)

    def test_rebinning_respects_budget(self):
        rng = np.random.default_rng(0)
        samples = rng.gamma(5.0, 20.0, size=500)
        pmf = PMF.from_samples(samples, max_impulses=16)
        assert pmf.support_size <= 16
        assert pmf.total_mass == pytest.approx(1.0)

    def test_rebinning_preserves_mean_roughly(self):
        rng = np.random.default_rng(1)
        samples = rng.gamma(10.0, 10.0, size=2000)
        pmf = PMF.from_samples(samples, max_impulses=24)
        assert pmf.mean() == pytest.approx(float(np.mean(samples)), rel=0.05)

    def test_min_value_clip(self):
        pmf = PMF.from_samples([0.1, 0.2, 0.3], min_value=1)
        assert pmf.min_time >= 1

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            PMF.from_samples([])

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError):
            PMF.from_samples([1.0, float("nan")])


class TestStatistics:
    def test_mean(self):
        pmf = PMF.from_impulses([1, 2], [0.6, 0.4])
        assert pmf.mean() == pytest.approx(1.4)

    def test_mean_of_empty_raises(self):
        with pytest.raises(ValueError):
            PMF.empty().mean()


class TestMassQueries:
    def test_mass_before(self):
        pmf = PMF.from_impulses([10, 11, 12], [0.2, 0.3, 0.5])
        assert pmf.mass_before(10) == 0.0
        assert pmf.mass_before(11) == pytest.approx(0.2)
        assert pmf.mass_before(12) == pytest.approx(0.5)
        assert pmf.mass_before(13) == pytest.approx(1.0)
        assert pmf.mass_before(100) == pytest.approx(1.0)

    def test_paper_example_chance_of_success(self):
        # Fig. 2 of the paper: completion impulses 11,12,13,14 with deadline 13
        completion = PMF.from_impulses([11, 12, 13, 14], [0.36, 0.42, 0.2, 0.02])
        assert completion.mass_before(13) == pytest.approx(0.78)


class TestStructuralOps:
    def test_split_at_middle(self):
        pmf = PMF.from_impulses([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4])
        before, after = pmf.split_at(3)
        assert before.total_mass == pytest.approx(0.3)
        assert after.total_mass == pytest.approx(0.7)
        assert before.max_time == 2
        assert after.min_time == 3

    def test_split_preserves_total_mass(self):
        pmf = PMF.from_impulses([5, 6, 9], [0.5, 0.25, 0.25])
        for t in range(3, 12):
            before, after = pmf.split_at(t)
            assert before.total_mass + after.total_mass == pytest.approx(pmf.total_mass)

    def test_split_edges(self):
        pmf = PMF.from_impulses([5, 6], [0.5, 0.5])
        before, after = pmf.split_at(5)
        assert before.is_empty and after.total_mass == pytest.approx(1.0)
        before, after = pmf.split_at(7)
        assert after.is_empty and before.total_mass == pytest.approx(1.0)

    def test_split_empty(self):
        before, after = PMF.empty().split_at(10)
        assert before.is_empty and after.is_empty

    def test_shift(self):
        pmf = PMF.from_impulses([1, 2], [0.5, 0.5]).shift(10)
        assert pmf.min_time == 11
        assert pmf.max_time == 12
        assert PMF.empty().shift(5).is_empty

    def test_scaled(self):
        pmf = PMF.delta(3).scaled(0.25)
        assert pmf.total_mass == pytest.approx(0.25)
        with pytest.raises(ValueError):
            PMF.delta(3).scaled(-0.1)
        with pytest.raises(ValueError):
            PMF.delta(3).scaled(1.5)

    def test_add_mixture(self):
        a = PMF.from_impulses([1, 2], [0.3, 0.2])
        b = PMF.from_impulses([2, 5], [0.1, 0.4])
        mix = a.add(b)
        assert mix.prob_at(1) == pytest.approx(0.3)
        assert mix.prob_at(2) == pytest.approx(0.3)
        assert mix.prob_at(5) == pytest.approx(0.4)
        assert mix.total_mass == pytest.approx(1.0)

    def test_add_identity(self):
        pmf = PMF.from_impulses([3], [0.7])
        assert pmf.add(PMF.empty()).approx_equal(pmf)
        assert PMF.empty().add(pmf).approx_equal(pmf)

    def test_add_mass_overflow_rejected(self):
        a = PMF.delta(1)
        b = PMF.delta(2)
        with pytest.raises(ValueError):
            a.add(b)

    def test_pruned(self):
        pmf = PMF.from_impulses([1, 2, 3], [0.5, 1e-15, 0.5 - 1e-15])
        pruned = pmf.pruned(1e-12)
        assert pruned.prob_at(2) == 0.0
        assert pruned.support_size == 2


class TestConvolution:
    def test_paper_example_convolution(self):
        # Fig. 2: exec {1:0.6, 2:0.4} conv completion {10:0.6, 11:0.3, 12:0.05, 13:0.05}
        exec_pmf = PMF.from_impulses([1, 2], [0.6, 0.4])
        prev = PMF.from_impulses([10, 11, 12, 13], [0.6, 0.3, 0.05, 0.05])
        conv = prev.convolve(exec_pmf)
        assert conv.prob_at(11) == pytest.approx(0.36)
        assert conv.prob_at(12) == pytest.approx(0.42)
        # P(13) = prev(12)*exec(1) + prev(11)*exec(2) = 0.05*0.6 + 0.3*0.4 = 0.15
        assert conv.prob_at(13) == pytest.approx(0.15)
        assert conv.total_mass == pytest.approx(1.0)

    def test_convolution_mass_is_product(self):
        a = PMF.from_impulses([1, 2], [0.3, 0.3])
        b = PMF.from_impulses([4], [0.5])
        conv = a.convolve(b)
        assert conv.total_mass == pytest.approx(0.3)

    def test_convolution_of_deltas(self):
        assert PMF.delta(3).convolve(PMF.delta(4)).approx_equal(PMF.delta(7))

    def test_convolution_mean_additivity(self):
        a = PMF.from_impulses([2, 5], [0.5, 0.5])
        b = PMF.from_impulses([1, 3, 9], [0.2, 0.3, 0.5])
        conv = a.convolve(b)
        assert conv.mean() == pytest.approx(a.mean() + b.mean())

    def test_convolution_with_empty(self):
        assert PMF.delta(1).convolve(PMF.empty()).is_empty
        assert PMF.empty().convolve(PMF.delta(1)).is_empty

    def test_convolution_commutative(self):
        a = PMF.from_impulses([1, 4], [0.7, 0.3])
        b = PMF.from_impulses([2, 3], [0.5, 0.5])
        assert a.convolve(b).approx_equal(b.convolve(a))


class TestConditioning:
    def test_conditional_at_least_renormalises(self):
        pmf = PMF.from_impulses([10, 20], [0.5, 0.5])
        cond = pmf.conditional_at_least(15)
        assert cond.prob_at(20) == pytest.approx(1.0)
        assert cond.total_mass == pytest.approx(1.0)

    def test_conditional_no_truncation(self):
        pmf = PMF.from_impulses([10, 20], [0.5, 0.5])
        cond = pmf.conditional_at_least(5)
        assert cond.approx_equal(pmf)

    def test_conditional_all_mass_in_past(self):
        pmf = PMF.from_impulses([10, 20], [0.5, 0.5])
        cond = pmf.conditional_at_least(30)
        assert cond.prob_at(30) == pytest.approx(1.0)


class TestSampling:
    def test_sample_values_in_support(self):
        pmf = PMF.from_impulses([5, 9], [0.5, 0.5])
        rng = np.random.default_rng(0)
        samples = pmf.sample(rng, size=200)
        assert set(np.unique(samples)).issubset({5, 9})

    def test_scalar_sample(self):
        rng = np.random.default_rng(0)
        value = PMF.delta(7).sample(rng)
        assert value == 7
        assert isinstance(value, int)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            PMF.empty().sample(np.random.default_rng(0))

    def test_sample_distribution_matches(self):
        pmf = PMF.from_impulses([1, 2], [0.8, 0.2])
        rng = np.random.default_rng(3)
        samples = pmf.sample(rng, size=5000)
        assert np.mean(samples == 1) == pytest.approx(0.8, abs=0.03)


class TestComparison:
    def test_approx_equal(self):
        a = PMF.from_impulses([1, 2], [0.5, 0.5])
        b = PMF.from_impulses([1, 2], [0.5, 0.5 - 1e-12])
        assert a.approx_equal(b)
        assert not a.approx_equal(PMF.delta(1))

    def test_repr(self):
        assert "PMF" in repr(PMF.delta(3))
        assert "empty" in repr(PMF.empty())
