"""First-class result objects returned by the fluent API.

A :class:`RunResult` wraps one configuration's trials with its aggregate
statistics and knows how to summarise, export and compare itself; a
:class:`SweepResult` holds the grid of runs produced by
:meth:`Simulation.sweep` and offers ``best()`` selection and tabular
comparison across configurations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from ..metrics.collector import AggregateMetrics, TrialMetrics
from ..experiments.runner import TrialSpec
from ..sim.perf import PerfStats

__all__ = ["RunResult", "SweepResult", "METRICS"]

#: Metric names understood by ``RunResult.metric`` / ``SweepResult.best``,
#: mapped to (extractor docstring, higher-is-better).
METRICS: Dict[str, bool] = {
    "robustness_pct": True,
    "cost_per_completed_pct": False,
    "reactive_share": False,
    "makespan": False,
}


@dataclass(frozen=True)
class RunResult:
    """Outcome of one configuration run through the fluent API.

    Attributes
    ----------
    label:
        Human-readable configuration label (e.g. ``"PAM+Heuristic"``).
    config:
        The axis values that produced this run (scenario, level, mapper,
        dropper, parameters, trials, seeds, ...), as a plain dict.
    specs:
        The executed :class:`~repro.experiments.runner.TrialSpec` objects.
    trials:
        Per-trial metrics, in trial order.
    aggregate:
        Cross-trial aggregation (means with confidence intervals).
    """

    label: str
    config: Mapping[str, Any]
    specs: Tuple[TrialSpec, ...]
    trials: Tuple[TrialMetrics, ...]
    aggregate: AggregateMetrics

    # ------------------------------------------------------------------
    @property
    def num_trials(self) -> int:
        """Number of executed trials."""
        return len(self.trials)

    @property
    def robustness_pct(self) -> float:
        """Mean percentage of measured tasks completed on time."""
        return self.aggregate.robustness_pct.mean

    @property
    def robustness_ci(self) -> Tuple[float, float]:
        """Confidence bounds of the robustness percentage."""
        ci = self.aggregate.robustness_pct
        return (ci.lower, ci.upper)

    @property
    def reactive_share(self) -> float:
        """Mean reactive share of machine-queue drops."""
        return self.aggregate.reactive_share.mean

    @property
    def cost_per_completed_pct(self) -> Optional[float]:
        """Mean normalised cost, or ``None`` when cost was not tracked."""
        ci = self.aggregate.cost_per_completed_pct
        return None if ci is None else ci.mean

    @property
    def perf(self) -> Optional[PerfStats]:
        """Summed hot-path counters across all trials (``None`` if absent)."""
        return PerfStats.merged(t.perf for t in self.trials)

    def metric(self, name: str = "robustness_pct") -> float:
        """Look up one scalar metric by name (see :data:`METRICS`)."""
        if name == "robustness_pct":
            return self.robustness_pct
        if name == "reactive_share":
            return self.reactive_share
        if name == "makespan":
            return sum(t.makespan for t in self.trials) / len(self.trials)
        if name == "cost_per_completed_pct":
            value = self.cost_per_completed_pct
            if value is None:
                raise ValueError(
                    f"run {self.label!r} carries no cost metric; "
                    f"build it with .with_cost()")
            return value
        raise ValueError(f"unknown metric {name!r}; known: {sorted(METRICS)}")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Multi-line human-readable summary of the run."""
        lo, hi = self.robustness_ci
        lines = [f"{self.label}  ({self.num_trials} trial"
                 f"{'s' if self.num_trials != 1 else ''})"]
        for key in ("scenario", "level", "mapper", "dropper"):
            if key in self.config:
                lines.append(f"  {key:<28}: {self.config[key]}")
        lines.append(f"  {'robustness (on time)':<28}: "
                     f"{self.robustness_pct:6.2f} %  [{lo:.2f}, {hi:.2f}]")
        lines.append(f"  {'reactive share of drops':<28}: "
                     f"{self.reactive_share:6.2%}")
        cost = self.cost_per_completed_pct
        if cost is not None:
            lines.append(f"  {'cost / completed pct':<28}: {cost:.6f}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:  # repro: allow[serialization-symmetry] lossy summary; spools round-trip
        """Plain JSON-serialisable representation of config + metrics."""
        lo, hi = self.robustness_ci
        payload: Dict[str, Any] = {
            "label": self.label,
            "config": dict(self.config),
            "num_trials": self.num_trials,
            "robustness_pct": self.robustness_pct,
            "robustness_ci": [lo, hi],
            "reactive_share": self.reactive_share,
            "makespan": self.metric("makespan"),
        }
        if self.cost_per_completed_pct is not None:
            payload["cost_per_completed_pct"] = self.cost_per_completed_pct
        perf = self.perf
        if perf is not None:
            payload["perf"] = perf.to_dict()
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON export of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


@dataclass(frozen=True)
class SweepResult:
    """The cartesian grid of runs produced by :meth:`Simulation.sweep`.

    Attributes
    ----------
    runs:
        One :class:`RunResult` per grid point, in generation order.
    axes:
        Names of the swept axes, in the order they vary (first axis
        varies slowest).
    """

    runs: Tuple[RunResult, ...]
    axes: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index: int) -> RunResult:
        return self.runs[index]

    # ------------------------------------------------------------------
    def configs(self) -> List[Dict[str, Any]]:
        """The swept axis values of every run, in run order."""
        return [{axis: run.config.get(axis) for axis in self.axes}
                for run in self.runs]

    @property
    def perf(self) -> Optional[PerfStats]:
        """Summed hot-path counters across every run of the sweep.

        Includes the fold-kernel and cache counters (``fold_memo_hits``,
        ``tail_cache_hits``, ``drop_cache_hits``, ...), so a sweep
        executed on a :class:`~repro.experiments.runner.TrialPool` reports
        the cache behaviour of its worker processes in one place.
        """
        merged = [run.perf for run in self.runs]
        return PerfStats.merged(merged)

    def best(self, metric: str = "robustness_pct",
             maximize: Optional[bool] = None) -> RunResult:
        """The run with the best value of ``metric``.

        ``maximize`` defaults per metric (robustness is maximised, cost /
        reactive share / makespan are minimised); pass it explicitly to
        override.
        """
        if not self.runs:
            raise ValueError("sweep produced no runs")
        if maximize is None:
            try:
                maximize = METRICS[metric]
            except KeyError:
                raise ValueError(f"unknown metric {metric!r}; "
                                 f"known: {sorted(METRICS)}") from None
        chooser = max if maximize else min
        return chooser(self.runs, key=lambda run: run.metric(metric))

    def table(self, metric: str = "robustness_pct", precision: int = 2) -> str:
        """Aligned comparison table: one row per run, swept axes as columns."""
        from ..experiments.reporting import format_aligned_table

        axes = list(self.axes) or ["label"]
        headers = axes + [metric]
        rows: List[List[str]] = []
        for run in self.runs:
            cells = [str(run.config.get(axis, run.label)) for axis in axes]
            cells.append(f"{run.metric(metric):.{precision}f}")
            rows.append(cells)
        return format_aligned_table(headers, rows)

    def summary(self, metric: str = "robustness_pct") -> str:
        """Comparison table plus the winning configuration."""
        best = self.best(metric)
        return (f"{self.table(metric)}\n"
                f"best ({metric}): {best.label} = {best.metric(metric):.2f}")

    def to_dict(self) -> Dict[str, Any]:  # repro: allow[serialization-symmetry] lossy summary; spools round-trip
        """Plain JSON-serialisable representation of the whole sweep."""
        payload: Dict[str, Any] = {"axes": list(self.axes),
                                   "runs": [run.to_dict() for run in self.runs]}
        perf = self.perf
        if perf is not None:
            payload["perf"] = perf.to_dict()
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON export of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
