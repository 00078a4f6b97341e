"""Per-trial metric collection and cross-trial aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from ..cost.accounting import CostReport, compute_cost_report
from ..cost.pricing import PricingModel
from ..platform.topology import TransferCounters
from ..records import Record
from ..sim.fault_events import ChurnCounters
from ..sim.perf import PerfStats
from ..sim.system import SimulationResult
from .drops import DropBreakdown, drop_breakdown
from .robustness import RobustnessReport, default_exclusion, robustness_report
from .stats import MeanCI, mean_confidence_interval

__all__ = ["TrialMetrics", "AggregateMetrics", "collect_trial_metrics",
           "aggregate_trials", "trial_metrics_to_dict",
           "trial_metrics_from_dict"]


@dataclass(frozen=True)
class TrialMetrics(Record):
    """All metrics extracted from one simulation trial; the lossless
    per-trial payload of the resumable sweep spool (``repr``-exact floats
    survive JSON bit-for-bit).

    Attributes
    ----------
    robustness:
        Robustness report (warm-up/cool-down excluded).
    drops:
        Drop-type breakdown over the whole run.
    cost:
        Cost report (``None`` when no pricing model was supplied).
    num_mapping_events:
        Number of mapping events the run triggered.
    makespan:
        Simulation time at which the system drained.
    churn:
        Fault-induced churn counters (crashes, requeued/lost tasks,
        partition machine-time).  ``None`` when the trial ran without a
        fault process, so fault-free metrics stay byte-identical to older
        spools; *included* in equality -- the incremental and naive
        engines must agree on churn too.
    transfers:
        Data-movement counters (transfer count, link occupancy, contention
        wait).  ``None`` when the trial ran without an effective topology,
        so topology-free metrics stay byte-identical to older spools;
        *included* in equality like ``churn``.
    perf:
        Hot-path work counters of the run (folds, cache hits, wall time).
        Excluded from equality so two runs with identical *outcomes* but
        different cache behaviour still compare equal -- this is what the
        incremental-vs-naive equivalence tests rely on.
    """

    robustness: RobustnessReport
    drops: DropBreakdown
    cost: Optional[CostReport]
    num_mapping_events: int
    makespan: int
    churn: Optional[ChurnCounters] = None
    transfers: Optional[TransferCounters] = None
    perf: Optional[PerfStats] = field(default=None, compare=False)

    CONDITIONAL = ("churn", "transfers", "perf")

    @property
    def robustness_pct(self) -> float:
        """Percentage of measured tasks completed on time."""
        return self.robustness.robustness_pct


@dataclass(frozen=True)
class AggregateMetrics:
    """Cross-trial aggregation of :class:`TrialMetrics`.

    Attributes
    ----------
    robustness_pct:
        Mean and confidence interval of the robustness percentage.
    cost_per_completed_pct:
        Mean and confidence interval of the normalised cost metric
        (``None`` when trials carried no cost report).
    reactive_share:
        Mean and confidence interval of the reactive share of queue drops.
    trials:
        The underlying per-trial metrics, in trial order.
    """

    robustness_pct: MeanCI
    cost_per_completed_pct: Optional[MeanCI]
    reactive_share: MeanCI
    trials: Sequence[TrialMetrics] = field(default_factory=tuple)

    @property
    def num_trials(self) -> int:
        """Number of aggregated trials."""
        return len(self.trials)


def collect_trial_metrics(result: SimulationResult,
                          pricing: Optional[PricingModel] = None,
                          warmup: Optional[int] = None,
                          cooldown: Optional[int] = None) -> TrialMetrics:
    """Extract all standard metrics from one simulation result."""
    total = len(result.tasks)
    if warmup is None:
        warmup = default_exclusion(total)
    if cooldown is None:
        cooldown = default_exclusion(total)
    robustness = robustness_report(result, warmup=warmup, cooldown=cooldown)
    drops = drop_breakdown(result)
    cost = None
    if pricing is not None:
        cost = compute_cost_report(result, pricing, robustness=robustness)
    churn = None
    if result.faults_active:
        churn = ChurnCounters(crashes=result.num_crashes,
                              requeued_tasks=result.num_requeued_tasks,
                              lost_tasks=result.num_crash_lost,
                              partition_time=result.partition_time)
    transfers = None
    if result.topology_active:
        transfers = TransferCounters(transfers=result.num_transfers,
                                     busy=result.transfer_time,
                                     wait=result.transfer_wait)
    return TrialMetrics(robustness=robustness, drops=drops, cost=cost,
                        num_mapping_events=result.num_mapping_events,
                        makespan=result.makespan,
                        churn=churn,
                        transfers=transfers,
                        perf=result.perf)


def trial_metrics_to_dict(metrics: TrialMetrics) -> Dict[str, Any]:
    """Lossless JSON form of one trial's metrics (``TrialMetrics.to_dict``)."""
    return metrics.to_dict()


def trial_metrics_from_dict(payload: Dict[str, Any]) -> TrialMetrics:
    """Rebuild a :class:`TrialMetrics` (:meth:`TrialMetrics.from_dict`)."""
    return TrialMetrics.from_dict(payload)


def aggregate_trials(trials: Sequence[TrialMetrics],
                     confidence: float = 0.95) -> AggregateMetrics:
    """Aggregate per-trial metrics into means with confidence intervals."""
    if not trials:
        raise ValueError("cannot aggregate zero trials")
    robustness = mean_confidence_interval(
        [t.robustness_pct for t in trials], confidence)
    reactive = mean_confidence_interval(
        [t.drops.reactive_share for t in trials], confidence)
    cost_ci: Optional[MeanCI] = None
    cost_values = [t.cost.cost_per_completed_pct for t in trials
                   if t.cost is not None and t.cost.cost_per_completed_pct != float("inf")]
    if cost_values:
        cost_ci = mean_confidence_interval(cost_values, confidence)
    return AggregateMetrics(robustness_pct=robustness,
                            cost_per_completed_pct=cost_ci,
                            reactive_share=reactive,
                            trials=tuple(trials))
