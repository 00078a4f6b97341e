"""Experiment harness reproducing the paper's evaluation section."""

from .ablations import (DroppingAgreementReport, PMFResolutionPoint,
                        ablation_optimal_vs_heuristic, ablation_pmf_resolution,
                        random_queue_view)
from .config import ExperimentConfig, bench_config
from .figures import (DEFAULT_LEVELS, FigurePoint, FigureResult,
                      figure5_effective_depth, figure6_beta,
                      figure7a_heterogeneous, figure7b_homogeneous,
                      figure8_dropping_policies, figure9_cost,
                      figure10_transcoding, reactive_share_analysis)
from .reporting import format_comparison, format_figure_table, format_series_summary
from .runner import TrialSpec, run_trial

__all__ = [
    "ExperimentConfig",
    "bench_config",
    "FigurePoint",
    "FigureResult",
    "DEFAULT_LEVELS",
    "figure5_effective_depth",
    "figure6_beta",
    "figure7a_heterogeneous",
    "figure7b_homogeneous",
    "figure8_dropping_policies",
    "figure9_cost",
    "figure10_transcoding",
    "reactive_share_analysis",
    "format_figure_table",
    "format_series_summary",
    "format_comparison",
    "TrialSpec",
    "run_trial",
    "DroppingAgreementReport",
    "PMFResolutionPoint",
    "ablation_optimal_vs_heuristic",
    "ablation_pmf_resolution",
    "random_queue_view",
]
