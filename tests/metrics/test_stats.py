"""Unit tests for the statistics helpers."""

import numpy as np
import pytest

from repro.metrics.stats import (bootstrap_confidence_interval,
                                 mean_confidence_interval, paired_difference)


class TestMeanConfidenceInterval:
    def test_single_value_degenerate_interval(self):
        ci = mean_confidence_interval([42.0])
        assert ci.mean == ci.lower == ci.upper == 42.0
        assert ci.n == 1
        assert ci.half_width == 0.0

    def test_constant_sample(self):
        ci = mean_confidence_interval([5.0, 5.0, 5.0])
        assert ci.half_width == 0.0

    def test_interval_contains_mean_and_is_symmetric(self):
        values = [10.0, 12.0, 14.0, 16.0]
        ci = mean_confidence_interval(values)
        assert ci.mean == pytest.approx(13.0)
        assert ci.lower < ci.mean < ci.upper
        assert (ci.mean - ci.lower) == pytest.approx(ci.upper - ci.mean)

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = mean_confidence_interval(values, confidence=0.80)
        wide = mean_confidence_interval(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_interval_shrinks_with_more_samples(self):
        rng = np.random.default_rng(0)
        small = mean_confidence_interval(rng.normal(10, 2, size=5))
        large = mean_confidence_interval(rng.normal(10, 2, size=500))
        assert large.half_width < small.half_width

    def test_coverage_on_normal_samples(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(200):
            sample = rng.normal(0.0, 1.0, size=15)
            ci = mean_confidence_interval(sample, confidence=0.95)
            if ci.lower <= 0.0 <= ci.upper:
                hits += 1
        assert hits / 200 >= 0.88

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0], confidence=1.5)

    def test_str(self):
        assert "±" in str(mean_confidence_interval([1.0, 2.0]))

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_bounds_bit_equal_to_scipy_stats(self, confidence):
        # Committed plan spools and golden outputs store these bounds, so the
        # arithmetic is pinned exactly to the scipy.stats formulation.
        from scipy import stats as sps

        rng = np.random.default_rng(20200518)
        for n in list(range(2, 61)) + [500]:
            sample = rng.normal(60.0, 15.0, size=n)
            ci = mean_confidence_interval(sample, confidence=confidence)
            mean = float(sample.mean())
            half = float(float(sps.sem(sample))
                         * sps.t.ppf((1.0 + confidence) / 2.0, n - 1))
            assert (ci.lower, ci.upper) == (mean - half, mean + half), n


class TestBootstrap:
    def test_single_value(self):
        ci = bootstrap_confidence_interval([3.0])
        assert ci.lower == ci.upper == 3.0

    def test_interval_contains_sample_mean(self):
        rng = np.random.default_rng(2)
        values = rng.normal(50, 5, size=30)
        ci = bootstrap_confidence_interval(values, rng=np.random.default_rng(0))
        assert ci.lower <= ci.mean <= ci.upper

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([])
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], confidence=0.0)


class TestPairedDifference:
    def test_positive_difference_detected(self):
        a = [10.0, 11.0, 12.0, 13.0]
        b = [8.0, 9.0, 10.0, 11.0]
        ci = paired_difference(a, b)
        assert ci.mean == pytest.approx(2.0)
        assert ci.lower > 0.0

    def test_no_difference(self):
        a = [5.0, 6.0, 7.0]
        ci = paired_difference(a, a)
        assert ci.mean == 0.0
        assert ci.half_width == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_difference([1.0, 2.0], [1.0])
