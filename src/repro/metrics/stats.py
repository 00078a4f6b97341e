"""Statistical aggregation across workload trials.

The paper runs 30 workload trials per configuration and reports means with
95 % confidence intervals.  This module provides the same aggregation
(Student-t confidence intervals) plus a bootstrap alternative useful for the
smaller trial counts of laptop-scale runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["MeanCI", "mean_confidence_interval", "bootstrap_confidence_interval",
           "paired_difference"]


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a symmetric-by-construction confidence interval.

    Attributes
    ----------
    mean:
        Sample mean.
    lower / upper:
        Confidence-interval bounds (equal to the mean for single samples).
    confidence:
        Confidence level of the interval.
    n:
        Number of samples aggregated.
    """

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        """Half-width of the interval."""
        return (self.upper - self.lower) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.2f} ± {self.half_width:.2f}"


def mean_confidence_interval(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Mean and Student-t confidence interval of a sample.

    A single observation yields a degenerate interval equal to the mean, and
    an empty sample raises ``ValueError``.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    mean = float(arr.mean())
    if arr.size == 1 or np.allclose(arr, arr[0]):
        return MeanCI(mean=mean, lower=mean, upper=mean, confidence=confidence,
                      n=int(arr.size))
    # Imported here so that importing any entry point loads no scipy.  These
    # are exactly what scipy.stats.sem and scipy.stats.t.ppf evaluate, so the
    # bounds stay bit-identical to that formulation.
    from scipy.special import stdtrit

    sem = float(np.std(arr, ddof=1) / np.sqrt(arr.size))
    half = float(sem * stdtrit(arr.size - 1, (1.0 + confidence) / 2.0))
    return MeanCI(mean=mean, lower=mean - half, upper=mean + half,
                  confidence=confidence, n=int(arr.size))


def bootstrap_confidence_interval(values: Sequence[float], confidence: float = 0.95,
                                  n_resamples: int = 2000,
                                  rng: Optional[np.random.Generator] = None) -> MeanCI:
    """Percentile-bootstrap confidence interval of the mean."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot aggregate an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng()
    mean = float(arr.mean())
    if arr.size == 1:
        return MeanCI(mean=mean, lower=mean, upper=mean, confidence=confidence, n=1)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    resampled_means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lower = float(np.quantile(resampled_means, alpha))
    upper = float(np.quantile(resampled_means, 1.0 - alpha))
    return MeanCI(mean=mean, lower=lower, upper=upper, confidence=confidence,
                  n=int(arr.size))


def paired_difference(a: Sequence[float], b: Sequence[float],
                      confidence: float = 0.95) -> MeanCI:
    """Confidence interval of the paired difference ``a - b``.

    Used to test whether two configurations evaluated on the same workload
    trials (same seeds) differ significantly -- e.g. the paper's claim that
    PAM+Optimal and PAM+Heuristic are statistically indistinguishable.
    """
    a_arr = np.asarray(list(a), dtype=np.float64)
    b_arr = np.asarray(list(b), dtype=np.float64)
    if a_arr.shape != b_arr.shape:
        raise ValueError("paired samples must have the same length")
    return mean_confidence_interval(a_arr - b_arr, confidence=confidence)
