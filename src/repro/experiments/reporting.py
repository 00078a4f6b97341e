"""Plain-text reporting of figure results.

The experiment harness prints the same rows/series the paper's figures plot;
these helpers render them as aligned text tables suitable for terminals,
logs and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

from .figures import FigureResult

__all__ = ["format_aligned_table", "format_figure_table",
           "format_series_summary", "format_comparison"]


def format_aligned_table(headers: Sequence[str],
                         rows: Sequence[Sequence[str]]) -> str:
    """Render string rows as an aligned table with a dashed separator.

    Shared by the sweep-result tables and the crossover report so the
    column layout stays consistent everywhere.  The last column is not
    padded, so no line ends in spaces.
    """
    widths = [max(len(h), *(len(r[i]) for r in rows)) + 2 if rows else len(h) + 2
              for i, h in enumerate(headers)]

    def line(cells: Sequence[str]) -> str:
        return "".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [line(headers), line(["-" * (w - 2) for w in widths])]
    lines.extend(line(cells) for cells in rows)
    return "\n".join(lines)


def _auto_precision(values, requested: int) -> int:
    """Pick a decimal precision that keeps small metric values visible.

    Percentage-scale figures read well with two decimals, but the normalised
    cost metric of Fig. 9 can be orders of magnitude below one at laptop
    scale; the precision is widened until the largest value has at least two
    significant digits (capped at eight decimals).
    """
    finite = [abs(v) for v in values if v == v and abs(v) != float("inf") and v != 0.0]
    if not finite:
        return requested
    largest = max(finite)
    precision = requested
    while largest < 10 ** (1 - precision) and precision < 8:
        precision += 1
    return precision


def format_figure_table(figure: FigureResult, precision: int = 2) -> str:
    """Render a figure result as an aligned text table.

    One row per (series, x) pair with the mean and confidence bounds of the
    plotted metric.  The decimal precision widens automatically when the
    metric values are far below one (e.g. normalised dollar costs).
    """
    header = f"{figure.title}\n{'=' * len(figure.title)}"
    rows = figure.to_rows()
    precision = _auto_precision([r[2] for r in rows], precision)
    cells = [[series, str(x), f"{mean:.{precision}f}",
              f"[{lower:.{precision}f}, {upper:.{precision}f}]"]
             for series, x, mean, lower, upper in rows]
    return header + "\n" + format_aligned_table(
        ["series", figure.x_label, figure.y_label, "95% CI"], cells)


def format_series_summary(figure: FigureResult, precision: int = 2) -> str:
    """One line per series: its mean metric across all x values."""
    lines = [f"{figure.figure_id}: {figure.title}"]
    for name, points in figure.series.items():
        values = [p.value for p in points]
        mean = sum(values) / len(values)
        lines.append(f"  {name:<28} mean={mean:.{precision}f} over {len(values)} points")
    return "\n".join(lines)


def format_comparison(labels: Sequence[str], values: Sequence[float],
                      title: str = "", precision: int = 2) -> str:
    """Small helper to print label/value pairs as an aligned block."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    width = max((len(label) for label in labels), default=0) + 2
    lines = [title] if title else []
    for label, value in zip(labels, values):
        lines.append(f"  {label.ljust(width)}{value:.{precision}f}")
    return "\n".join(lines)
