"""Verdicts for a change against its parent, one row per (workload,
end-to-end metric), by the pair rule:

* pair run ``i`` of the parent with run ``i`` of the change; at least ten
  pairs, run alternately, are needed for any verdict;
* *unresolved*: the parent's spread (IQR over median) is wider than the
  metric's bound, unless every change run beats every parent run;
* *improved*: otherwise, the change wins at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the
  parent's interquartile range;
* *regressed*: the change's median is worse than the parent's by more than
  the bound, as a share of the parent's median;
* *unchanged* otherwise.

The rules apply in this order.

The error rate is its own row: any failed change run is a regression.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """Verdict of one metric from paired samples (see the module doc)."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved"
    p, c = list(parent[:n]), list(change[:n])
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    base = statistics.median(p)
    q1, _, q3 = statistics.quantiles(p, n=4)
    gain = sign * (statistics.median(c) - base)
    every_run_better = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
    if (q3 - q1) > bound * abs(base) and not every_run_better:
        return "unresolved"
    if wins >= WIN_SHARE * n and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(base):
        return "regressed"
    return "unchanged"


def load_runs(arg: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Host and runs of a ``run --out`` file, or of set ``N`` of a file
    holding several sets (``baseline.json:0``)."""
    path, _, index = arg.partition(":")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "sets" in data:
        if not index:
            raise SystemExit(f"{path} holds {len(data['sets'])} sets; "
                             f"name one as {path}:N")
        data = data["sets"][int(index)]
    return data["host"], data["runs"]


def _fmt(value: float) -> str:
    return f"{value:.5g}"


def compare(parent_arg: str, change_arg: str, spec: Dict[str, Any],
            extra_bounds: Dict[str, float]) -> Tuple[List[str], int]:
    """Report lines and the number of regressed or unresolved rows (plus
    one when the two sides' runs differ in length)."""
    parent_host, parent_runs = load_runs(parent_arg)
    change_host, change_runs = load_runs(change_arg)
    lines: List[str] = []
    bad = 0
    if parent_host != change_host:
        lines.append(f"note: hosts differ; parent {parent_host}, "
                     f"change {change_host}")
    lengths = [sorted({r["seconds"] for r in runs})
               for runs in (parent_runs, change_runs)]
    if lengths[0] != lengths[1]:
        bad += 1
        lines.append(f"error: run lengths differ; parent {lengths[0]} s, "
                     f"change {lengths[1]} s")
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics += [(name, units.get(name, ""), "lower", bound)
                for name, bound in extra_bounds.items()]
    for workload in [w["name"] for w in spec["workloads"]]:
        # Traced runs measure the tracer too; only untraced runs pair up.
        p_runs = [r for r in parent_runs
                  if r["workload"] == workload and "layers" not in r]
        c_runs = [r for r in change_runs
                  if r["workload"] == workload and "layers" not in r]
        if not p_runs or not c_runs:
            continue
        for name, unit, better, bound in metrics:
            p = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            c = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not p or not c:
                continue
            row = verdict(p, c, better, bound)
            bad += row in ("regressed", "unresolved")
            base = statistics.median(p)
            new = statistics.median(c)
            q = statistics.quantiles(p, n=4) if len(p) > 1 else [base] * 3
            delta = f"{100 * (new - base) / base:+.2f}%" if base else "n/a"
            lines.append(
                f"{workload:14s} {name:18s} {row:10s} change {_fmt(new)} "
                f"vs parent {_fmt(base)} {unit} ({delta} of the parent's "
                f"median {_fmt(base)}; parent IQR {_fmt(q[0])}-{_fmt(q[2])}; "
                f"{min(len(p), len(c))} pairs; bound {bound:.0%})")
        p_fail = sum(r["failed"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs)
        p_att = sum(r["attempted"] for r in p_runs)
        c_att = sum(r["attempted"] for r in c_runs)
        row = ("regressed" if c_fail else
               "improved" if p_fail else "unchanged")
        bad += row == "regressed"
        lines.append(f"{workload:14s} {'error_rate':18s} {row:10s} change "
                     f"{c_fail}/{c_att} failed/attempted vs parent "
                     f"{p_fail}/{p_att}")
    return lines, bad
