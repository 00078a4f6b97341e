"""Reproduction of every figure in the paper's evaluation section.

Each figure *compiles to one declarative plan*: a ``figN_plan`` builder
turns the :class:`ExperimentConfig` into an
:class:`~repro.api.plan.ExperimentPlan` whose grid cells are exactly the
paper's configurations, the plan executes through the package's single
funnel (:meth:`ExperimentPlan.execute`, persistent worker pool included),
and the ``figureN_*`` function maps the resulting cells onto the figure's
series.  :func:`figure_plan` exposes the compiled plan of any figure by id
(``repro plan export --figure fig8`` serialises it to a file), so a figure
grid can be shipped, diffed, resumed and sharded like any other plan.

* Fig. 5  -- effective depth η sweep (PAM + heuristic dropping);
* Fig. 6  -- robustness improvement factor β sweep (PAM + heuristic);
* Fig. 7a -- heterogeneous mapping heuristics × {Heuristic, ReactDrop};
* Fig. 7b -- homogeneous mapping heuristics × {Heuristic, ReactDrop};
* Fig. 8  -- PAM+{Optimal, Heuristic, Threshold} across oversubscription;
* Fig. 9  -- cost per completed-task percentage across oversubscription;
* Fig. 10 -- mapping heuristics × dropping on the transcoding workload;
* §V-F    -- reactive share of drops under proactive dropping;
* churn   -- ranking-under-churn study: the paper's mapper×dropper pairs
  re-ranked under crash/restart machine churn vs the clean-room baseline;
* locality -- ranking-under-locality study: the same pairs re-ranked on a
  tiered edge/cloud topology (data movement as a first-class cost) vs the
  paper's implicit uniform platform.

Absolute robustness values depend on the synthetic workloads (see DESIGN.md
substitutions); what the benchmark harness asserts is the *shape* of these
results, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .config import ExperimentConfig

if TYPE_CHECKING:  # repro.api.results imports this package
    from ..api.plan import ExperimentPlan
    from ..api.results import RunResult

__all__ = [
    "FigurePoint",
    "FigureResult",
    "figure_plan",
    "figure5_effective_depth",
    "figure6_beta",
    "figure7a_heterogeneous",
    "figure7b_homogeneous",
    "figure8_dropping_policies",
    "figure9_cost",
    "figure10_transcoding",
    "reactive_share_analysis",
    "churn_plan",
    "figure_churn_ranking",
    "locality_plan",
    "figure_locality_ranking",
    "DEFAULT_LEVELS",
    "CHURN_PAIRS",
]

#: Oversubscription levels used throughout the evaluation.
DEFAULT_LEVELS: Tuple[str, ...] = ("20k", "30k", "40k")


@dataclass(frozen=True)
class FigurePoint:
    """One data point of a figure series.

    Attributes
    ----------
    x:
        Horizontal-axis value (η, β, oversubscription label, heuristic name).
    value:
        Mean of the plotted metric across trials.
    lower / upper:
        Confidence-interval bounds of the plotted metric.
    result:
        The plan cell's :class:`~repro.api.results.RunResult` behind the
        point (specs, per-trial metrics and aggregate), labelled with the
        point's configuration name.
    """

    x: object
    value: float
    lower: float
    upper: float
    result: RunResult


@dataclass
class FigureResult:
    """All series of one reproduced figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, List[FigurePoint]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add_point(self, series_name: str, x: object,
                  result: RunResult, metric: str = "robustness") -> None:
        """Append one configuration result to a series."""
        if metric == "robustness":
            ci = result.aggregate.robustness_pct
        elif metric == "cost":
            ci = result.aggregate.cost_per_completed_pct
            if ci is None:
                raise ValueError("configuration carries no cost metric")
        elif metric == "reactive_share":
            ci = result.aggregate.reactive_share
        else:
            raise ValueError(f"unknown metric {metric!r}")
        point = FigurePoint(x=x, value=ci.mean, lower=ci.lower, upper=ci.upper,
                            result=result)
        self.series.setdefault(series_name, []).append(point)

    def series_values(self, series_name: str) -> List[float]:
        """Mean metric values of one series, in insertion order."""
        return [p.value for p in self.series[series_name]]

    def series_xs(self, series_name: str) -> List[object]:
        """Horizontal-axis values of one series, in insertion order."""
        return [p.x for p in self.series[series_name]]

    def to_rows(self) -> List[Tuple[str, object, float, float, float]]:
        """Flat ``(series, x, mean, lower, upper)`` rows for tabular output."""
        rows = []
        for name, points in self.series.items():
            for p in points:
                rows.append((name, p.x, p.value, p.lower, p.upper))
        return rows


# ----------------------------------------------------------------------
# Plan execution helpers
# ----------------------------------------------------------------------

def _run_plan(plan) -> List[RunResult]:
    """Execute a figure's plan and return its cells' results.

    Results come back in grid order (the plan's canonical axis order), so
    the figure functions can zip them against the loops that generated the
    grid.  Labels default to the trial spec's pretty name
    (``"PAM+Heuristic"``); figures that need parameterised labels relabel
    the results they place.
    """
    return [replace(run, label=run.specs[0].label)
            for run in plan.execute().runs]


# ----------------------------------------------------------------------
# Figure 5: effective depth sweep
# ----------------------------------------------------------------------

def fig5_plan(config: ExperimentConfig, etas: Sequence[int] = (1, 2, 3, 4, 5),
              levels: Sequence[str] = DEFAULT_LEVELS,
              mapper: str = "PAM"):
    """Compile Fig. 5 (effective-depth sweep) to one plan."""
    return config.plan(
        name="fig5-effective-depth", levels=list(levels), mappers=[mapper],
        droppers=[{"name": "heuristic",
                   "params": {"beta": 1.0, "eta": int(eta)},
                   "label": f"Heuristic(eta={int(eta)})"} for eta in etas])


def figure5_effective_depth(config: ExperimentConfig,
                            etas: Sequence[int] = (1, 2, 3, 4, 5),
                            levels: Sequence[str] = DEFAULT_LEVELS,
                            mapper: str = "PAM") -> FigureResult:
    """Impact of the effective depth η on robustness (Fig. 5)."""
    fig = FigureResult(figure_id="fig5",
                       title="Impact of effective depth on system robustness",
                       x_label="Effective depth (eta)",
                       y_label="Tasks completed on time (%)")
    results = iter(_run_plan(fig5_plan(config, etas, levels, mapper)))
    for level in levels:
        series = f"{level} tasks"
        for eta in etas:
            result = replace(next(results),
                             label=f"{mapper}+Heuristic(eta={int(eta)})")
            fig.add_point(series, int(eta), result)
    return fig


# ----------------------------------------------------------------------
# Figure 6: robustness improvement factor sweep
# ----------------------------------------------------------------------

def fig6_plan(config: ExperimentConfig,
              betas: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
              levels: Sequence[str] = DEFAULT_LEVELS,
              mapper: str = "PAM", eta: int = 2):
    """Compile Fig. 6 (β sweep) to one plan."""
    return config.plan(
        name="fig6-beta", levels=list(levels), mappers=[mapper],
        droppers=[{"name": "heuristic",
                   "params": {"beta": float(beta), "eta": int(eta)},
                   "label": f"Heuristic(beta={float(beta)})"}
                  for beta in betas])


def figure6_beta(config: ExperimentConfig,
                 betas: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
                 levels: Sequence[str] = DEFAULT_LEVELS,
                 mapper: str = "PAM", eta: int = 2) -> FigureResult:
    """Impact of the robustness improvement factor β on robustness (Fig. 6)."""
    fig = FigureResult(figure_id="fig6",
                       title="Impact of robustness improvement factor",
                       x_label="Robustness improvement factor (beta)",
                       y_label="Tasks completed on time (%)")
    results = iter(_run_plan(fig6_plan(config, betas, levels, mapper, eta)))
    for level in levels:
        series = f"{level} tasks"
        for beta in betas:
            result = replace(next(results),
                             label=f"{mapper}+Heuristic(beta={float(beta)})")
            fig.add_point(series, float(beta), result)
    return fig


# ----------------------------------------------------------------------
# Figures 7a / 7b / 10: mapping heuristics with and without proactive dropping
# ----------------------------------------------------------------------

def _mapping_comparison_plan(config: ExperimentConfig, scenario_name: str,
                             level: str, mappers: Sequence[str], name: str,
                             eta: int = 2, beta: float = 1.0):
    return config.plan(
        name=name, scenarios=[scenario_name], levels=[level],
        mappers=list(mappers),
        droppers=[{"name": "heuristic",
                   "params": {"beta": float(beta), "eta": int(eta)}},
                  "react"])


def _mapping_comparison(config: ExperimentConfig, scenario_name: str, level: str,
                        mappers: Sequence[str], figure_id: str, title: str,
                        eta: int = 2, beta: float = 1.0) -> FigureResult:
    fig = FigureResult(figure_id=figure_id, title=title,
                       x_label="Mapping heuristic",
                       y_label="Tasks completed on time (%)")
    plan = _mapping_comparison_plan(config, scenario_name, level, mappers,
                                    f"{figure_id}-comparison", eta, beta)
    results = iter(_run_plan(plan))
    for mapper in mappers:
        with_drop = next(results)     # heuristic dropper varies fastest,
        without_drop = next(results)  # so each mapper yields two cells
        fig.add_point(f"{mapper}+Heuristic", mapper, with_drop)
        fig.add_point(f"{mapper}+ReactDrop", mapper, without_drop)
    return fig


def figure7a_heterogeneous(config: ExperimentConfig, level: str = "30k",
                           mappers: Sequence[str] = ("MSD", "MM", "PAM")) -> FigureResult:
    """Proactive dropping across heterogeneous mapping heuristics (Fig. 7a)."""
    return _mapping_comparison(config, "spec", level, mappers, "fig7a",
                               "Proactive dropping in a heterogeneous system")


def figure7b_homogeneous(config: ExperimentConfig, level: str = "30k",
                         mappers: Sequence[str] = ("FCFS", "EDF", "SJF", "PAM")
                         ) -> FigureResult:
    """Proactive dropping across homogeneous mapping heuristics (Fig. 7b)."""
    return _mapping_comparison(config, "homogeneous", level, mappers, "fig7b",
                               "Proactive dropping in a homogeneous system")


def figure10_transcoding(config: ExperimentConfig, level: str = "20k",
                         mappers: Sequence[str] = ("MSD", "MM", "PAM")) -> FigureResult:
    """Validation on the video-transcoding workload (Fig. 10)."""
    return _mapping_comparison(config, "transcoding", level, mappers, "fig10",
                               "Proactive dropping on the video transcoding workload")


# ----------------------------------------------------------------------
# Figure 8: dropping-policy comparison
# ----------------------------------------------------------------------

def fig8_plan(config: ExperimentConfig,
              levels: Sequence[str] = DEFAULT_LEVELS, mapper: str = "PAM",
              include_optimal: bool = True):
    """Compile Fig. 8 (dropping-policy comparison) to one plan."""
    droppers: List[object] = []
    if include_optimal:
        droppers.append({"name": "optimal"})
    droppers.extend([
        {"name": "heuristic", "params": {"beta": 1.0, "eta": 2}},
        {"name": "threshold-adaptive"},
    ])
    return config.plan(name="fig8-dropping-policies", levels=list(levels),
                       mappers=[mapper], droppers=droppers)


def figure8_dropping_policies(config: ExperimentConfig,
                              levels: Sequence[str] = DEFAULT_LEVELS,
                              mapper: str = "PAM",
                              include_optimal: bool = True) -> FigureResult:
    """PAM+Optimal vs PAM+Heuristic vs PAM+Threshold across oversubscription (Fig. 8)."""
    fig = FigureResult(figure_id="fig8",
                       title="Proactive dropping vs threshold-based dropping",
                       x_label="Oversubscription level",
                       y_label="Tasks completed on time (%)")
    labels: List[str] = []
    if include_optimal:
        labels.append(f"{mapper}+Optimal")
    labels.extend([f"{mapper}+Heuristic", f"{mapper}+Threshold"])
    plan = fig8_plan(config, levels, mapper, include_optimal)
    results = iter(_run_plan(plan))
    for level in levels:
        for label in labels:
            fig.add_point(label, level, replace(next(results), label=label))
    return fig


# ----------------------------------------------------------------------
# Figure 9: incurred cost
# ----------------------------------------------------------------------

def fig9_plan(config: ExperimentConfig,
              levels: Sequence[str] = DEFAULT_LEVELS):
    """Compile Fig. 9 (incurred cost) to one plan.

    The paper compares three *matched* configurations, so the grid is an
    explicit pair list rather than a mapper x dropper product.
    """
    return config.plan(
        name="fig9-cost", levels=list(levels), with_cost=True,
        pairs=[
            {"mapper": "PAM", "dropper": {"name": "threshold-adaptive"}},
            {"mapper": "PAM",
             "dropper": {"name": "heuristic",
                         "params": {"beta": 1.0, "eta": 2}}},
            {"mapper": "MM", "dropper": "react"},
        ])


def figure9_cost(config: ExperimentConfig,
                 levels: Sequence[str] = DEFAULT_LEVELS) -> FigureResult:
    """Normalised incurred cost of resources across oversubscription (Fig. 9)."""
    fig = FigureResult(figure_id="fig9",
                       title="Incurred cost of using resources",
                       x_label="Oversubscription level",
                       y_label="Cost / tasks completed on time (%)")
    labels = ["PAM+Threshold", "PAM+Heuristic", "MM+ReactDrop"]
    results = iter(_run_plan(fig9_plan(config, levels)))
    for level in levels:
        for label in labels:
            fig.add_point(label, level, replace(next(results), label=label),
                          metric="cost")
    return fig


# ----------------------------------------------------------------------
# Section V-F: reactive share of drops
# ----------------------------------------------------------------------

def drops_plan(config: ExperimentConfig, level: str = "30k",
               mapper: str = "PAM"):
    """Compile the §V-F reactive-share analysis to one plan."""
    return config.plan(
        name="vF-reactive-share", levels=[level], mappers=[mapper],
        droppers=[{"name": "heuristic", "params": {"beta": 1.0, "eta": 2}},
                  "react"])


def reactive_share_analysis(config: ExperimentConfig, level: str = "30k",
                            mapper: str = "PAM") -> FigureResult:
    """Share of machine-queue drops that remain reactive (Section V-F).

    The paper reports that with the proactive mechanism enabled only about
    7 % of drops happen reactively; without it every drop is reactive by
    definition.
    """
    fig = FigureResult(figure_id="vF-drops",
                       title="Reactive share of machine-queue drops",
                       x_label="Configuration",
                       y_label="Reactive share of queue drops")
    with_drop, without_drop = _run_plan(drops_plan(config, level, mapper))
    fig.add_point(f"{mapper}+Heuristic", f"{mapper}+Heuristic", with_drop,
                  metric="reactive_share")
    fig.add_point(f"{mapper}+ReactDrop", f"{mapper}+ReactDrop", without_drop,
                  metric="reactive_share")
    return fig


# ----------------------------------------------------------------------
# Ranking-under-churn study
# ----------------------------------------------------------------------

#: Mapper × dropper pairs whose ranking the churn study compares.  These
#: are the paper's headline configurations: proactive dropping (Heuristic),
#: the threshold baseline and purely reactive dropping, under the two main
#: mapping heuristics.
CHURN_PAIRS: Tuple[Tuple[str, object], ...] = (
    ("PAM", {"name": "heuristic", "params": {"beta": 1.0, "eta": 2}}),
    ("PAM", {"name": "threshold-adaptive"}),
    ("MM", {"name": "heuristic", "params": {"beta": 1.0, "eta": 2}}),
    ("MM", "react"),
)


def churn_plan(config: ExperimentConfig, level: str = "30k",
               variant: str = "churn", mtbf: float = 2_000.0,
               repair_mean: float = 400.0, policy: str = "requeue"):
    """Compile one arm of the ranking-under-churn study to a plan.

    ``variant="clean"`` is the fault-free baseline; ``variant="churn"`` runs
    the same pair grid under a crash/restart fault process.  Both arms share
    scenario, seeds and grid, so any ranking difference is attributable to
    the churn alone.
    """
    return _study_plan(config, "churn", level, variant, ("clean", "churn"), {
        "faults": "crash-restart",
        "fault_params": {"mtbf": float(mtbf),
                         "repair_mean": float(repair_mean),
                         "policy": policy}})


def _study_plan(config: ExperimentConfig, study: str, level: str,
                variant: str, variants: Tuple[str, str],
                overrides: Dict[str, object]):
    """One arm of a ranking study: the :data:`CHURN_PAIRS` grid, with the
    axis ``overrides`` on the second of the two ``variants``."""
    if variant not in variants:
        raise ValueError(f"unknown {study} variant {variant!r}; "
                         f"known: {', '.join(variants)}")
    pairs = [{"mapper": mapper, "dropper": dropper}
             for mapper, dropper in CHURN_PAIRS]
    return config.plan(name=f"{study}-ranking-{variant}", levels=[level],
                       pairs=pairs,
                       **(overrides if variant == variants[1] else {}))


def _pair_label(mapper: str, dropper: object) -> str:
    pretty = {"heuristic": "Heuristic", "threshold-adaptive": "Threshold",
              "react": "ReactDrop", "optimal": "Optimal"}
    name = dropper["name"] if isinstance(dropper, dict) else dropper
    return f"{mapper}+{pretty.get(name, name)}"


def figure_churn_ranking(config: ExperimentConfig, level: str = "30k",
                         mtbf: float = 2_000.0, repair_mean: float = 400.0,
                         policy: str = "requeue") -> FigureResult:
    """Mapper×dropper robustness ranking under seeded crash/restart churn
    vs fault-free (see :func:`_ranking_figure`)."""
    return _ranking_figure(
        "churn", "Pair ranking under crash/restart churn",
        [("clean", churn_plan(config, level, variant="clean")),
         ("churn", churn_plan(config, level, variant="churn", mtbf=mtbf,
                              repair_mean=repair_mean, policy=policy))])


def _ranking_figure(figure_id: str, title: str,
                    arms: Sequence[Tuple[str, "ExperimentPlan"]]
                    ) -> FigureResult:
    """Run the :data:`CHURN_PAIRS` grid of each ``(series, plan)`` arm and
    report the robustness series side by side.  The series order within
    each arm *is* the ranking; the title records whether the two arms rank
    the pairs alike."""
    labels = [_pair_label(mapper, dropper) for mapper, dropper in CHURN_PAIRS]
    runs = [(series, _run_plan(plan)) for series, plan in arms]
    rankings = [
        [label for label, _ in sorted(
            zip(labels, results),
            key=lambda item: -item[1].aggregate.robustness_pct.mean)]
        for _, results in runs]
    preserved = rankings[0] == rankings[1]
    fig = FigureResult(
        figure_id=figure_id,
        title=title + (" (ranking preserved)" if preserved
                       else " (ranking changed)"),
        x_label="Mapper+Dropper",
        y_label="Tasks completed on time (%)")
    for series, results in runs:
        for label, result in zip(labels, results):
            fig.add_point(series, label, replace(result, label=label))
    return fig


# ----------------------------------------------------------------------
# Ranking-under-locality study
# ----------------------------------------------------------------------

def locality_plan(config: ExperimentConfig, level: str = "30k",
                  variant: str = "tiered", bandwidth: float = 48.0,
                  latency: int = 2, task_bytes: int = 192):
    """Compile one arm of the ranking-under-locality study to a plan.

    ``variant="uniform"`` is the paper's implicit zero-cost platform;
    ``variant="tiered"`` runs the same pair grid on a tiered edge/cloud
    topology where every dispatch to a cloud machine pays a shared-uplink
    transfer.  Both arms share scenario, seeds and grid (the transfer
    schedule is deterministic and draws no randomness), so any ranking
    difference is attributable to data movement alone.
    """
    return _study_plan(config, "locality", level, variant,
                       ("uniform", "tiered"), {
                           "topology": "tiered-edge-cloud",
                           "topology_params": {
                               "bandwidth": float(bandwidth),
                               "latency": int(latency),
                               "task_bytes": int(task_bytes)}})


def figure_locality_ranking(config: ExperimentConfig, level: str = "30k",
                            bandwidth: float = 48.0, latency: int = 2,
                            task_bytes: int = 192) -> FigureResult:
    """Mapper×dropper robustness ranking on a tiered edge/cloud topology
    (a shared uplink in front of the fast machines) vs the paper's uniform
    platform (see :func:`_ranking_figure`)."""
    return _ranking_figure(
        "locality", "Pair ranking under a tiered edge/cloud topology",
        [("uniform", locality_plan(config, level, variant="uniform")),
         ("tiered", locality_plan(config, level, variant="tiered",
                                  bandwidth=bandwidth, latency=latency,
                                  task_bytes=task_bytes))])


# ----------------------------------------------------------------------
# Plan export
# ----------------------------------------------------------------------

def figure_plan(figure_id: str, config: ExperimentConfig,
                levels: Optional[Sequence[str]] = None,
                level: Optional[str] = None,
                include_optimal: bool = True):
    """The compiled :class:`ExperimentPlan` of a figure, by id.

    This is what ``repro plan export --figure figN`` serialises: running the
    exported plan executes exactly the grid the figure command would, cell
    for cell and seed for seed.
    """
    levels = tuple(levels) if levels else DEFAULT_LEVELS
    if figure_id == "fig5":
        return fig5_plan(config, levels=levels)
    if figure_id == "fig6":
        return fig6_plan(config, levels=levels)
    if figure_id == "fig7a":
        return _mapping_comparison_plan(config, "spec", level or "30k",
                                        ("MSD", "MM", "PAM"),
                                        "fig7a-comparison")
    if figure_id == "fig7b":
        return _mapping_comparison_plan(config, "homogeneous", level or "30k",
                                        ("FCFS", "EDF", "SJF", "PAM"),
                                        "fig7b-comparison")
    if figure_id == "fig8":
        return fig8_plan(config, levels=levels,
                         include_optimal=include_optimal)
    if figure_id == "fig9":
        return fig9_plan(config, levels=levels)
    if figure_id == "fig10":
        return _mapping_comparison_plan(config, "transcoding", level or "20k",
                                        ("MSD", "MM", "PAM"),
                                        "fig10-comparison")
    if figure_id == "drops":
        return drops_plan(config, level=level or "30k")
    if figure_id == "churn":
        # Export the faulted arm; the clean baseline is the same plan with
        # the fault axis removed (or variant="clean" through the API).
        return churn_plan(config, level=level or "30k", variant="churn")
    if figure_id == "locality":
        # Export the tiered arm; the uniform baseline is the same plan
        # with the topology axis removed (or variant="uniform").
        return locality_plan(config, level=level or "30k", variant="tiered")
    raise ValueError(f"unknown figure {figure_id!r}; known: fig5, fig6, "
                     f"fig7a, fig7b, fig8, fig9, fig10, drops, churn, "
                     f"locality")
