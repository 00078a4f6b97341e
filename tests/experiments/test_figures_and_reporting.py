"""Tests for the figure harness, reporting and the CLI (tiny scales)."""

import re

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (FigureResult, figure_plan,
                                       figure5_effective_depth,
                                       figure7a_heterogeneous,
                                       figure8_dropping_policies, figure9_cost,
                                       reactive_share_analysis)
from repro.experiments.reporting import (format_comparison, format_figure_table,
                                         format_series_summary)

TINY = ExperimentConfig(scale=0.002, trials=1, base_seed=11)


def pam_react_run(config):
    return config.plan(levels=["20k"], mappers=["PAM"],
                       droppers=["react"]).execute().runs[0]


@pytest.fixture(scope="module")
def tiny_fig7a():
    return figure7a_heterogeneous(TINY, level="30k", mappers=("MM", "PAM"))


class TestFigureResult:
    def test_add_point_and_rows(self):
        config = TINY
        result = pam_react_run(config)
        fig = FigureResult(figure_id="x", title="t", x_label="x", y_label="y")
        fig.add_point("series-a", 1, result)
        fig.add_point("series-a", 2, result)
        assert fig.series_xs("series-a") == [1, 2]
        assert len(fig.series_values("series-a")) == 2
        assert len(fig.to_rows()) == 2

    def test_unknown_metric(self):
        config = TINY
        result = pam_react_run(config)
        fig = FigureResult(figure_id="x", title="t", x_label="x", y_label="y")
        with pytest.raises(ValueError):
            fig.add_point("s", 1, result, metric="nope")

    def test_cost_metric_requires_cost(self):
        config = TINY
        result = pam_react_run(config)
        fig = FigureResult(figure_id="x", title="t", x_label="x", y_label="y")
        with pytest.raises(ValueError):
            fig.add_point("s", 1, result, metric="cost")


class TestFigureHarness:
    def test_fig7a_structure(self, tiny_fig7a):
        fig = tiny_fig7a
        assert set(fig.series) == {"MM+Heuristic", "MM+ReactDrop",
                                   "PAM+Heuristic", "PAM+ReactDrop"}
        for points in fig.series.values():
            assert len(points) == 1
            assert 0.0 <= points[0].value <= 100.0

    def test_fig5_structure(self):
        fig = figure5_effective_depth(TINY, etas=(1, 2), levels=("30k",))
        assert list(fig.series) == ["30k tasks"]
        assert fig.series_xs("30k tasks") == [1, 2]

    def test_fig8_structure_without_optimal(self):
        fig = figure8_dropping_policies(TINY, levels=("20k",), include_optimal=False)
        assert set(fig.series) == {"PAM+Heuristic", "PAM+Threshold"}

    def test_fig9_reports_cost_metric(self):
        fig = figure9_cost(TINY, levels=("20k",))
        for points in fig.series.values():
            assert points[0].value >= 0.0

    def test_reactive_share_analysis(self):
        fig = reactive_share_analysis(TINY, level="30k")
        react_only = fig.series["PAM+ReactDrop"][0].value
        with_heuristic = fig.series["PAM+Heuristic"][0].value
        assert 0.0 <= with_heuristic <= 1.0
        # Without proactive dropping every queue drop is reactive.
        assert react_only == pytest.approx(1.0) or react_only == 0.0


class TestFigurePlans:
    def test_every_figure_compiles_to_a_plan(self):
        expected_cells = {"fig5": 15, "fig6": 21, "fig7a": 6, "fig7b": 8,
                          "fig8": 9, "fig9": 9, "fig10": 6, "drops": 2,
                          "churn": 4}
        for figure_id, cells in expected_cells.items():
            plan = figure_plan(figure_id, TINY)
            assert plan.num_cells() == cells, figure_id
            # The compiled plan survives serialisation unchanged.
            from repro.api import ExperimentPlan

            assert ExperimentPlan.from_dict(plan.to_dict()) == plan

    def test_fig9_uses_matched_pairs(self):
        plan = figure_plan("fig9", TINY, levels=("20k",))
        assert plan.with_cost
        assert [(p.mapper.name, p.dropper.name) for p in plan.pairs] == \
            [("PAM", "threshold-adaptive"), ("PAM", "heuristic"),
             ("MM", "react")]

    def test_exported_plan_reproduces_figure_cells(self):
        # Executing the compiled plan yields exactly the per-cell metrics
        # the figure function places on its series.
        plan = figure_plan("drops", TINY)
        runs = plan.execute().runs
        fig = reactive_share_analysis(TINY)
        assert fig.series["PAM+Heuristic"][0].result.aggregate == \
            runs[0].aggregate
        assert fig.series["PAM+ReactDrop"][0].result.aggregate == \
            runs[1].aggregate

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            figure_plan("fig99", TINY)


class TestChurnStudy:
    def test_churn_plan_arms_differ_only_in_the_fault_axis(self):
        from repro.experiments.figures import churn_plan

        clean = churn_plan(TINY, variant="clean")
        churn = churn_plan(TINY, variant="churn", mtbf=500.0)
        assert clean.faults == "none"
        assert churn.faults == "crash-restart"
        assert dict(churn.fault_params)["mtbf"] == 500.0
        assert clean.pairs == churn.pairs
        assert clean.base_seed == churn.base_seed
        with pytest.raises(ValueError, match="unknown churn variant"):
            churn_plan(TINY, variant="chaos")

    def test_figure_churn_ranking_structure(self):
        from repro.experiments.figures import CHURN_PAIRS, figure_churn_ranking

        fig = figure_churn_ranking(TINY)
        assert set(fig.series) == {"clean", "churn"}
        assert len(fig.series["clean"]) == len(CHURN_PAIRS)
        assert fig.series_xs("clean") == fig.series_xs("churn")
        assert "ranking" in fig.title


class TestReporting:
    def test_format_figure_table(self, tiny_fig7a):
        text = format_figure_table(tiny_fig7a)
        assert "MM+Heuristic" in text
        assert "Tasks completed on time" in text
        assert "[" in text and "]" in text  # confidence bounds

    def test_format_series_summary(self, tiny_fig7a):
        text = format_series_summary(tiny_fig7a)
        assert "fig7a" in text
        assert "mean=" in text

    def test_format_comparison(self):
        text = format_comparison(["a", "bb"], [1.0, 2.5], title="demo")
        assert "demo" in text and "bb" in text
        with pytest.raises(ValueError):
            format_comparison(["a"], [1.0, 2.0])

    def test_small_metric_values_keep_significant_digits(self):
        """Normalised cost values far below one must not render as 0.00."""
        from repro.experiments.figures import FigurePoint

        fig = FigureResult(figure_id="cost", title="cost", x_label="x",
                           y_label="cost")
        fig.series["s"] = [FigurePoint(x="20k", value=2.3e-5, lower=1.9e-5,
                                       upper=2.7e-5, result=None)]
        text = format_figure_table(fig)
        assert "0.000023" in text

    def test_long_labels_and_bounds_keep_columns_apart(self):
        """A long axis label or a 7-decimal CI must not run into its
        neighbour (Fig. 9's labels at laptop scale)."""
        from repro.experiments.figures import FigurePoint

        fig = FigureResult(figure_id="fig9", title="cost",
                           x_label="Oversubscription level",
                           y_label="Cost / tasks completed on time (%)")
        fig.series["PAM+Heuristic"] = [FigurePoint(
            x="20k", value=6.3e-6, lower=6.3e-6, upper=6.3e-6, result=None)]
        lines = format_figure_table(fig).splitlines()
        header, row = lines[2], lines[-1]
        assert re.match(r"series {2,}Oversubscription level {2,}"
                        r"Cost / tasks completed on time \(%\) {2,}95% CI",
                        header)
        assert re.match(r"PAM\+Heuristic {2,}20k {2,}0\.0000063 {2,}"
                        r"\[0\.0000063, 0\.0000063\]", row)


class TestCLI:
    def test_parser_accepts_all_figures(self):
        parser = build_parser()
        for figure in ("fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9",
                       "fig10", "drops", "churn"):
            args = parser.parse_args([figure])
            assert args.figure == figure

    def test_main_runs_tiny_figure(self, capsys):
        exit_code = main(["fig7a", "--scale", "0.002", "--trials", "1",
                          "--level", "30k"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "PAM" in captured.out

    def test_main_drops_analysis(self, capsys):
        exit_code = main(["drops", "--scale", "0.002", "--trials", "1"])
        assert exit_code == 0
        assert "Reactive share" in capsys.readouterr().out


class TestFastNumericsGoldenFigure:
    """Re-pinned golden figure payload under ``numerics="fast"``.

    The fast profile is deterministic (closed-form scores and FFT folds in
    a fixed order), so its figure payloads pin just like the exact ones --
    they are simply pinned to *their own* golden values wherever a score
    tie within tolerance flips an assignment (here: the PAM cells, whose
    phase-1 chance scores tie at 1.0 under slack deadlines).
    """

    #: Golden robustness percentages of the tiny fig7a grid
    #: (scale=0.002, trials=1, base_seed=11, level=30k).
    GOLDEN_EXACT = {"MM heuristic": 88.33333333333333,
                    "MM react": 86.66666666666667,
                    "PAM heuristic": 95.0,
                    "PAM react": 96.66666666666667}
    GOLDEN_FAST = {"MM heuristic": 88.33333333333333,
                   "MM react": 86.66666666666667,
                   "PAM heuristic": 90.0,
                   "PAM react": 88.33333333333333}

    def _robustness(self, numerics):
        plan = TINY.plan(name="fig7a-golden", scenarios=["spec"],
                         levels=["30k"], mappers=["MM", "PAM"],
                         droppers=[{"name": "heuristic", "params": {}},
                                   {"name": "react", "params": {}}],
                         numerics=numerics)
        return {run.label: run.aggregate.robustness_pct.mean
                for run in plan.execute().runs}

    def test_fast_payload_matches_golden(self):
        got = self._robustness("fast")
        assert set(got) == set(self.GOLDEN_FAST)
        for label, value in self.GOLDEN_FAST.items():
            assert got[label] == pytest.approx(value, abs=1e-9), label

    def test_exact_payload_unchanged_by_the_axis(self):
        got = self._robustness("exact")
        for label, value in self.GOLDEN_EXACT.items():
            assert got[label] == pytest.approx(value, abs=1e-9), label

    def test_tie_free_cells_identical_across_profiles(self):
        # MM's expected-completion scores never tie within tolerance on
        # this workload, so its fast cells reproduce the exact trajectory.
        assert self.GOLDEN_FAST["MM heuristic"] \
            == self.GOLDEN_EXACT["MM heuristic"]
        assert self.GOLDEN_FAST["MM react"] == self.GOLDEN_EXACT["MM react"]
