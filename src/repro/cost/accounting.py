"""Cost accounting over simulation results.

Computes the total dollar cost of the machine time actually consumed during
a run, and the paper's normalised metric *cost per percentage of tasks
completed on time* used in Fig. 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..metrics.robustness import RobustnessReport, robustness_report
from ..records import Record
from ..sim.system import SimulationResult
from .pricing import PricingModel

__all__ = ["CostReport", "compute_cost_report"]


@dataclass(frozen=True)
class CostReport(Record):
    """Cost outcome of one simulation run.

    Attributes
    ----------
    total_cost:
        Dollar cost of all busy machine time during the run.
    cost_by_machine_type:
        Dollar cost aggregated per machine type id (string keys in JSON).
    robustness_pct:
        Percentage of (measured) tasks completed on time.
    cost_per_completed_pct:
        ``total_cost / robustness_pct`` -- the paper's normalised cost metric
        (infinity when nothing completed on time).
    """

    total_cost: float
    cost_by_machine_type: Dict[int, float]
    robustness_pct: float
    cost_per_completed_pct: float


def compute_cost_report(result: SimulationResult, pricing: PricingModel,
                        warmup: int = 0, cooldown: int = 0,
                        robustness: Optional[RobustnessReport] = None) -> CostReport:
    """Compute the cost metrics of a simulation run.

    Parameters
    ----------
    result:
        Raw simulation outcome.
    pricing:
        Pricing model mapping machine types to dollar-per-hour prices.
    warmup / cooldown:
        Number of first/last tasks excluded from the robustness measurement
        (forwarded to :func:`~repro.metrics.robustness.robustness_report`
        when ``robustness`` is not supplied).
    robustness:
        Pre-computed robustness report, to avoid recomputing it.
    """
    cost_by_type: Dict[int, float] = {}
    for machine in result.machines:
        cost = pricing.cost_of_busy_time(machine.type_id, machine.busy_time)
        cost_by_type[machine.type_id] = cost_by_type.get(machine.type_id, 0.0) + cost
    total_cost = float(sum(cost_by_type.values()))

    report = robustness if robustness is not None else robustness_report(
        result, warmup=warmup, cooldown=cooldown)
    pct = report.robustness_pct
    cost_per_pct = total_cost / pct if pct > 0 else float("inf")
    return CostReport(total_cost=total_cost,
                      cost_by_machine_type=cost_by_type,
                      robustness_pct=pct,
                      cost_per_completed_pct=cost_per_pct)
