"""Experiment configuration shared by all figure reproductions.

:class:`ExperimentConfig` is a thin view over the defaults of a declarative
:class:`~repro.api.plan.ExperimentPlan`: :meth:`ExperimentConfig.plan`
compiles the knobs into a plan (the package's single execution funnel) and
:meth:`ExperimentConfig.from_plan` projects a plan's shared knobs back into
a config.  The figure harness builds its grids through these two hooks, so
a figure is just a plan plus a mapping of cells onto series.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Optional

__all__ = ["ExperimentConfig", "bench_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs that apply to every experiment of the harness.

    Attributes
    ----------
    scale:
        Fraction of the paper's task counts to simulate (1.0 = 20k/30k/40k
        tasks per trial).  Laptop-scale defaults keep the arrival *intensity*
        of the paper while shrinking the number of tasks.
    trials:
        Number of workload trials per configuration (paper: 30).
    base_seed:
        Seed of the first trial; trial ``k`` uses ``base_seed + k`` so that
        different configurations compare on identical workloads.
    gamma:
        Deadline slack coefficient of the paper's deadline formula.
    queue_capacity:
        Machine-queue capacity, including the running task (paper: 6).
    batch_window:
        Number of batch-queue tasks the mapper examines per mapping event.
    confidence:
        Confidence level of the reported intervals (paper: 95 %).
    n_jobs:
        Worker processes used to run trials in parallel (1 = sequential).
    """

    scale: float = 0.02
    trials: int = 3
    base_seed: int = 42
    gamma: float = 1.0
    queue_capacity: int = 6
    batch_window: int = 32
    confidence: float = 0.95
    n_jobs: int = 1

    def __post_init__(self):
        self.plan()  # the plan checks every knob (raises PlanError)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy of the configuration with some fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Plan view
    # ------------------------------------------------------------------
    def plan(self, **overrides: Any) -> "ExperimentPlan":
        """Compile the configuration into an :class:`ExperimentPlan`.

        The config's knobs become the plan's shared defaults (one-value
        scale/gamma axes, trials/seeds, queue/window/confidence, worker
        count); ``overrides`` are any :class:`ExperimentPlan` constructor
        arguments -- typically the grid axes (``levels=…``, ``mappers=…``,
        ``droppers=…``, ``pairs=…``).  Imported lazily so this module never
        depends on :mod:`repro.api` at import time.
        """
        from ..api.plan import ExperimentPlan

        kwargs: dict = dict(
            scales=[self.scale], gammas=[self.gamma], trials=self.trials,
            base_seed=self.base_seed, queue_capacity=self.queue_capacity,
            batch_window=self.batch_window, confidence=self.confidence,
            n_jobs=self.n_jobs)
        kwargs.update(overrides)
        return ExperimentPlan(**kwargs)

    @classmethod
    def from_plan(cls, plan: "ExperimentPlan") -> "ExperimentConfig":
        """Project a plan's shared knobs into a config (the thin view).

        Multi-valued scale/gamma axes keep their first value -- a config
        describes one point of those axes by construction.
        """
        return cls(scale=plan.scales[0], trials=plan.trials,
                   base_seed=plan.base_seed, gamma=plan.gammas[0],
                   queue_capacity=plan.queue_capacity,
                   batch_window=plan.batch_window,
                   confidence=plan.confidence, n_jobs=plan.n_jobs)


def bench_config(scale: Optional[float] = None, trials: Optional[int] = None,
                 n_jobs: Optional[int] = None) -> ExperimentConfig:
    """Configuration used by the benchmark harness.

    Defaults are intentionally small so the whole ``benchmarks/`` suite runs
    on a laptop; they can be raised towards paper scale through the
    ``REPRO_BENCH_SCALE``, ``REPRO_BENCH_TRIALS`` and ``REPRO_BENCH_JOBS``
    environment variables without editing code.
    """
    env_scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.012"))
    env_trials = int(os.environ.get("REPRO_BENCH_TRIALS", "2"))
    env_jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
    return ExperimentConfig(
        scale=scale if scale is not None else env_scale,
        trials=trials if trials is not None else env_trials,
        n_jobs=n_jobs if n_jobs is not None else env_jobs,
    )
