"""Performance benchmark harness (``repro bench``).

Two suites share this module:

* **core** pins a handful of oversubscribed scenarios, runs each one twice
  per seed -- a baseline side against a contender side -- verifies that
  both runs produce *identical* ``TrialMetrics``, and records wall-clock
  times, speedups and the cache counters in a JSON payload
  (``BENCH_core.json``).  Classic cases compare the naive
  recompute-everything scheduler views (``incremental=False``) against the
  incremental completion-PMF machinery; ``compare="scoring"`` cases compare
  the per-pair ``loop`` score-plane backend against the batched ``vector``
  engine on wide-window high-oversubscription workloads.  Scenario
  construction happens outside the timed section, so the numbers measure
  the simulation core only.

:func:`compare_to_baseline` also performs per-case regression detection
(``--max-regression-case``): a case whose speedup falls below its own
baseline floor is listed in the exit-3 report even when the geomean gate
passes.
* **sweep** times the persistent-pool sweep executor
  (:class:`~repro.experiments.runner.TrialPool`) against the fresh-pool-
  per-cell behaviour on a pinned mapper x dropper grid and records the
  multi-process throughput (``BENCH_sweep.json``).

:func:`compare_to_baseline` backs ``repro bench --baseline``: it checks a
fresh core payload against a committed one and flags geomean-speedup
regressions (CI runs it with ``--warn-only``).

``benchmarks/perf/`` is the canonical home of the committed payloads::

    python -m repro bench --suite core --scale 0.05 --trials 2 \
        --repeats 5 --output benchmarks/perf/BENCH_core.json
    python -m repro bench --suite sweep --trials 2 --jobs 2 \
        --output benchmarks/perf/BENCH_sweep.json
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.collector import TrialMetrics, collect_trial_metrics
from ..sim.perf import PerfStats
from .runner import TrialSpec, build_system_for_trial

__all__ = ["BenchCase", "BENCH_CASES", "run_perf_benchmark",
           "run_sweep_benchmark", "run_crossover_benchmark",
           "compare_to_baseline",
           "format_bench_table", "format_sweep_table",
           "format_crossover_table",
           "format_baseline_comparison", "write_bench_json",
           "bench_history", "format_bench_trend"]


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark configuration of the core harness.

    ``compare`` selects what the case's two timed runs are:

    * ``"incremental"`` -- the naive recompute-everything scheduler views
      (``incremental=False``) against the incremental completion-PMF
      machinery; the historical core suite.
    * ``"scoring"`` -- the per-pair ``loop`` score-plane backend against
      the batched ``vector`` engine (both incremental); the mapping
      suite.  The payload keeps the ``naive_s`` / ``incremental_s`` keys
      (baseline = first backend, contender = second) so schemas stay
      stable.
    * ``"stream"`` -- the streaming service driver
      (:class:`~repro.stream.service.StreamingSimulation`) pumping steady
      traffic to a scale-derived horizon, naive scheduler views against
      the incremental machinery; pins the service mode's hot path.
      ``level`` is unused (streaming rates come from the spec's
      oversubscription factor).
    * ``"numerics"`` -- the ``numerics="exact"`` fold arithmetic against
      the ``"fast"`` profile (closed-form success scores + batched FFT
      folds), both incremental with the vector score plane.  Unlike every
      other kind, metric divergence does *not* raise: fast scores are
      tolerance-bounded, so a score tie within tolerance may legitimately
      flip an assignment.  The observed equality is recorded honestly in
      ``metrics_equal`` instead (in practice the sides agree, because the
      committed trajectory is always folded exactly).
    * ``"topology"`` -- the naive scheduler views against the incremental
      machinery with the case's platform topology active, so the
      transfer-shifted effective PMFs run through both paths; metric
      divergence raises like the classic cases (the incremental==naive pin
      must survive data-movement costs bit-for-bit).
    """

    name: str
    scenario: str = "spec"
    level: str = "30k"
    mapper: str = "PAM"
    dropper: str = "react"
    dropper_params: Tuple[Tuple[str, float], ...] = ()
    gamma: float = 1.0
    batch_window: int = 32
    compare: str = "incremental"
    topology: str = "uniform"
    topology_params: Tuple[Tuple[str, object], ...] = ()


#: The pinned oversubscribed scenarios of ``BENCH_core.json``: the paper's
#: headline configuration (PAM + autonomous heuristic dropping), a
#: reactive-only baseline, the heaviest oversubscription level, and --
#: ``compare="scoring"`` -- high-oversubscription mapping cases whose
#: relaxed deadlines back the batch queue up into wide (task x machine)
#: score planes, where the vectorised backend's win is measured.
BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(name="spec-30k-PAM-react"),
    BenchCase(name="spec-40k-PAM-react", level="40k"),
    BenchCase(name="spec-30k-PAM-heuristic", dropper="heuristic"),
    BenchCase(name="spec-40k-MM-heuristic", level="40k", mapper="MM",
              dropper="heuristic"),
    BenchCase(name="spec-40k-PAM-plane-g5-w64", level="40k", gamma=5.0,
              batch_window=64, compare="scoring"),
    BenchCase(name="spec-40k-MSD-plane-g5-w64", level="40k", mapper="MSD",
              gamma=5.0, batch_window=64, compare="scoring"),
    BenchCase(name="spec-40k-PAM-fast-g5-w64", level="40k", gamma=5.0,
              batch_window=64, compare="numerics"),
    BenchCase(name="spec-40k-MM-fast-g5-w64", level="40k", mapper="MM",
              gamma=5.0, batch_window=64, compare="numerics"),
    BenchCase(name="stream-steady", dropper="heuristic", compare="stream"),
    BenchCase(name="spec-40k-PAM-tiered", level="40k", dropper="heuristic",
              compare="topology", topology="tiered-edge-cloud",
              topology_params=(("bandwidth", 48.0), ("latency", 2),
                               ("task_bytes", 192))),
)


def _spec_for(case: BenchCase, scale: float, seed: int,
              baseline: bool) -> TrialSpec:
    """Spec of one timed run; ``baseline`` picks the case's reference side."""
    numerics = "exact"
    if case.compare == "scoring":
        incremental = True
        scoring = "loop" if baseline else "vector"
    elif case.compare == "numerics":
        incremental = True
        scoring = "vector"
        numerics = "exact" if baseline else "fast"
    else:
        incremental = not baseline
        scoring = "vector"
    return TrialSpec(scenario_name=case.scenario, level=case.level,
                     scale=scale, gamma=case.gamma, queue_capacity=6,
                     seed=seed, mapper_name=case.mapper,
                     dropper_name=case.dropper,
                     dropper_params=case.dropper_params,
                     batch_window=case.batch_window,
                     incremental=incremental, scoring=scoring,
                     numerics=numerics,
                     topology_name=case.topology,
                     topology_params=case.topology_params)


def _timed_stream_trial(case: BenchCase, scale: float, seed: int,
                        baseline: bool, repeats: int = 1,
                        ) -> Tuple[float, TrialMetrics]:
    """Time the streaming service driver over a scale-derived horizon.

    The horizon is chosen so the run handles roughly the task count of a
    batch trial at the same ``scale`` (30k-level arrivals), keeping stream
    and batch cases comparable in the same payload.  Service construction
    (scenario/PET build) happens outside the timed section.
    """
    from ..stream import StreamSpec, StreamingSimulation

    spec = StreamSpec(scenario_name=case.scenario, traffic_name="steady",
                      gamma=case.gamma, batch_window=case.batch_window,
                      seed=seed, mapper_name=case.mapper,
                      dropper_name=case.dropper,
                      dropper_params=case.dropper_params,
                      incremental=not baseline)
    best = None
    metrics = None
    for _ in range(max(1, int(repeats))):
        service = StreamingSimulation(spec)
        horizon = int(round(30_000 * scale / service.arrival_rate))
        start = time.perf_counter()
        service.run_until(horizon)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            metrics = service.metrics()
    return best, metrics


def _timed_trial(case: BenchCase, scale: float, seed: int,
                 baseline: bool, repeats: int = 1,
                 ) -> Tuple[float, TrialMetrics]:
    """Build the scenario untimed, then time ``system.run()`` alone.

    With ``repeats > 1`` the run is repeated on the same scenario and the
    *minimum* wall-clock is reported -- the standard noise shield on busy
    or single-core machines (runs are seed-deterministic, so every repeat
    produces identical metrics).
    """
    from ..workload.scenario import build_scenario

    if case.compare == "stream":
        return _timed_stream_trial(case, scale, seed, baseline, repeats)
    spec = _spec_for(case, scale, seed, baseline)
    scenario = build_scenario(spec.scenario_name, level=spec.level,
                              scale=spec.scale, gamma=spec.gamma,
                              seed=spec.seed,
                              queue_capacity=spec.queue_capacity)
    best = None
    metrics = None
    for _ in range(max(1, int(repeats))):
        rng = np.random.default_rng(spec.seed + 1_000_003)
        system = build_system_for_trial(scenario, spec, rng)
        start = time.perf_counter()
        result = system.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            metrics = collect_trial_metrics(result)
    return best, metrics


def run_perf_benchmark(scale: float = 0.05, trials: int = 2,
                       base_seed: int = 42,
                       cases: Optional[Sequence[BenchCase]] = None,
                       names: Optional[Sequence[str]] = None,
                       repeats: int = 1) -> Dict[str, Any]:
    """Run the pinned benchmark cases and return the JSON payload.

    ``repeats`` times each (case, seed, side) run that many times and
    records the min -- use ``repeats=3`` for committed payloads so the
    recorded speedups are min-of-3 rather than single samples.

    Raises ``RuntimeError`` if any case's contender run does not produce
    metrics identical to its baseline run -- the harness doubles as an
    end-to-end equivalence check (naive==incremental for classic and
    topology cases, loop==vector for the scoring cases).  ``compare="numerics"`` cases are
    exempt from the raise: ``fast`` is tolerance-bounded, so a score tie
    within tolerance may flip an assignment; the observed equality is
    recorded in the entry's ``metrics_equal`` instead.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    selected = list(cases if cases is not None else BENCH_CASES)
    if names:
        wanted = set(names)
        selected = [c for c in selected if c.name in wanted]
        missing = wanted - {c.name for c in selected}
        if missing:
            known = ", ".join(sorted(c.name for c in BENCH_CASES))
            raise ValueError(f"unknown benchmark case(s) {sorted(missing)}; "
                             f"known: {known}")
    if not selected:
        raise ValueError("no benchmark cases selected")

    entries: List[Dict[str, Any]] = []
    for case in selected:
        naive_s = 0.0
        incremental_s = 0.0
        robustness = 0.0
        naive_stats: List[Optional[PerfStats]] = []
        incremental_stats: List[Optional[PerfStats]] = []
        metrics_equal = True
        for k in range(trials):
            seed = base_seed + k
            n_time, n_metrics = _timed_trial(case, scale, seed, True,
                                             repeats)
            i_time, i_metrics = _timed_trial(case, scale, seed, False,
                                             repeats)
            if n_metrics != i_metrics:
                if case.compare == "numerics":
                    # Documented divergence policy: fast scores are
                    # tolerance-bounded, so ties within tolerance may flip
                    # an assignment.  Record honestly, don't fail.
                    metrics_equal = False
                else:
                    sides = ("vector scoring", "loop backend") \
                        if case.compare == "scoring" else ("incremental",
                                                          "naive path")
                    raise RuntimeError(
                        f"benchmark case {case.name} (seed {seed}): "
                        f"{sides[0]} metrics diverged from the {sides[1]}")
            naive_s += n_time
            incremental_s += i_time
            robustness += i_metrics.robustness_pct / trials
            naive_stats.append(n_metrics.perf)
            incremental_stats.append(i_metrics.perf)
        # Counters are summed over all trials, consistent with the summed
        # wall-clock times above.
        naive_merged = PerfStats.merged(naive_stats)
        incremental_merged = PerfStats.merged(incremental_stats)
        naive_perf = naive_merged.to_dict() if naive_merged else None
        incremental_perf = (incremental_merged.to_dict()
                            if incremental_merged else None)
        entries.append({
            "name": case.name,
            "scenario": case.scenario,
            "level": case.level,
            "mapper": case.mapper,
            "dropper": case.dropper,
            "compare": case.compare,
            "naive_s": naive_s,
            "incremental_s": incremental_s,
            "speedup": naive_s / incremental_s if incremental_s > 0 else 0.0,
            "robustness_pct": robustness,
            "metrics_equal": metrics_equal,
            "naive_perf": naive_perf,
            "incremental_perf": incremental_perf,
        })

    speedups = [e["speedup"] for e in entries]
    return {
        "benchmark": "core",
        "scale": scale,
        "trials": trials,
        "repeats": repeats,
        "base_seed": base_seed,
        "scenarios": entries,
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "geomean_speedup": float(np.exp(np.mean(np.log(speedups)))),
    }


def run_sweep_benchmark(scale: float = 0.02, trials: int = 2,
                        n_jobs: int = 2, base_seed: int = 42) -> Dict[str, Any]:
    """Benchmark the persistent-pool sweep executor (``BENCH_sweep.json``).

    Runs the pinned mapper x dropper grid twice with ``n_jobs`` workers:
    once the way PR 2 executed sweeps (one fresh worker pool per grid cell,
    scenario rebuilt inside every worker trial) and once on a single warm
    :class:`~repro.experiments.runner.TrialPool` (workers persist across
    cells, scenarios shipped once through the initializer).  Both runs must
    produce identical per-trial metrics -- the trials cross process
    boundaries, so this also exercises PMF pickling.
    """
    from ..api.builder import Simulation

    if trials < 1:
        raise ValueError("need at least one trial")
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    grid = {"mapper": ["PAM", "MM"], "dropper": ["heuristic", "react"]}
    base = (Simulation.scenario("spec").level("30k").scale(scale)
            .trials(trials, base_seed=base_seed))

    # Cold: the pre-TrialPool behaviour -- each cell pays pool startup and
    # per-trial scenario construction in the workers.
    from ..experiments.runner import run_trials

    cold_cells = []
    start = time.perf_counter()
    for mapper in grid["mapper"]:
        for dropper in grid["dropper"]:
            sim = base.mapper(mapper).dropper(dropper)
            cold_cells.append(run_trials(sim.build_specs(), n_jobs=n_jobs))
    cold_s = time.perf_counter() - start

    # Warm: one persistent pool for the whole grid.
    start = time.perf_counter()
    sweep = base.parallel(n_jobs).sweep(**grid)
    warm_s = time.perf_counter() - start

    cells = []
    equal = True
    for run, cold_trials in zip(sweep.runs, cold_cells):
        cell_equal = list(run.trials) == list(cold_trials)
        equal = equal and cell_equal
        perf = run.perf
        cells.append({
            "label": run.label,
            "robustness_pct": run.robustness_pct,
            "metrics_equal": cell_equal,
            "perf": perf.to_dict() if perf is not None else None,
        })
    total_trials = len(sweep.runs) * trials
    return {
        "benchmark": "sweep",
        "scale": scale,
        "trials": trials,
        "n_jobs": n_jobs,
        "base_seed": base_seed,
        "grid": grid,
        "cells": cells,
        "metrics_equal": equal,
        "cold_pool_s": cold_s,
        "warm_pool_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "total_trials": total_trials,
        "throughput_trials_per_s": total_trials / warm_s if warm_s > 0 else 0.0,
    }


def run_crossover_benchmark(scale: float = 0.02, trials: int = 2,
                            base_seed: int = 42, max_tasks: int = 8,
                            repeats: int = 1) -> Dict[str, Any]:
    """Measure the vector-vs-loop small-plane crossover on this platform.

    The vector score-plane backend routes mapping events whose plane is at
    most :data:`~repro.mapping.kernel.SMALL_PLANE_TASKS` tasks wide to the
    per-pair loop path, because NumPy's batched kernels only amortise
    their setup cost past some plane width -- and that width is a property
    of the host BLAS/NumPy build, not of the workload.  This micro suite
    measures it instead of trusting the pinned constant: for every plane
    width ``w`` in ``1..max_tasks`` it runs the paper's headline
    oversubscribed configuration with ``batch_window=w`` (heavy backlog
    keeps the batch queue full, so planes sit at the cap) twice -- once
    with ``small_plane_tasks`` forced above ``w`` (always the loop path)
    and once forced to 0 (always the vector kernels) -- and reports the
    largest width where the loop still wins.  That number is the
    platform's measured ``SystemConfig.small_plane_tasks`` override; the
    committed default documents the measurement on the reference machine.

    Both sides run ``numerics="exact"``, so their metrics must match
    bit-for-bit; a mismatch raises like the core suite's scoring cases.
    """
    from ..mapping.kernel import SMALL_PLANE_TASKS
    from ..workload.scenario import build_scenario

    if scale <= 0:
        raise ValueError("scale must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    if max_tasks < 1:
        raise ValueError("need at least one plane width")

    def timed(spec: TrialSpec) -> Tuple[float, TrialMetrics]:
        scenario = build_scenario(spec.scenario_name, level=spec.level,
                                  scale=spec.scale, gamma=spec.gamma,
                                  seed=spec.seed,
                                  queue_capacity=spec.queue_capacity)
        best = None
        metrics = None
        for _ in range(max(1, int(repeats))):
            rng = np.random.default_rng(spec.seed + 1_000_003)
            system = build_system_for_trial(scenario, spec, rng)
            start = time.perf_counter()
            result = system.run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
                metrics = collect_trial_metrics(result)
        return best, metrics

    widths: List[Dict[str, Any]] = []
    for w in range(1, max_tasks + 1):
        loop_s = 0.0
        vector_s = 0.0
        for k in range(trials):
            base = dict(scenario_name="spec", level="40k", scale=scale,
                        gamma=5.0, queue_capacity=6, seed=base_seed + k,
                        mapper_name="PAM", dropper_name="react",
                        batch_window=w, incremental=True, scoring="vector")
            l_time, l_metrics = timed(
                TrialSpec(small_plane_tasks=max_tasks + 1, **base))
            v_time, v_metrics = timed(TrialSpec(small_plane_tasks=0, **base))
            if l_metrics != v_metrics:
                raise RuntimeError(
                    f"crossover width {w} (seed {base_seed + k}): vector "
                    f"kernel metrics diverged from the loop path")
            loop_s += l_time
            vector_s += v_time
        widths.append({
            "tasks": w,
            "loop_s": loop_s,
            "vector_s": vector_s,
            "speedup": loop_s / vector_s if vector_s > 0 else 0.0,
            "vector_wins": vector_s < loop_s,
        })

    # Recommended threshold: the largest width where the loop path still
    # wins (every plane up to that width should take the fallback).  A
    # vector win at every width measures as 0.
    measured = 0
    for entry in widths:
        if not entry["vector_wins"]:
            measured = entry["tasks"]
    return {
        "benchmark": "crossover",
        "scale": scale,
        "trials": trials,
        "repeats": repeats,
        "base_seed": base_seed,
        "mapper": "PAM",
        "level": "40k",
        "gamma": 5.0,
        "widths": widths,
        "measured_small_plane_tasks": measured,
        "pinned_default": SMALL_PLANE_TASKS,
    }


def format_crossover_table(payload: Dict[str, Any]) -> str:
    """Aligned human-readable summary of a crossover benchmark payload."""
    from .reporting import format_aligned_table

    headers = ["plane_tasks", "loop_s", "vector_s", "loop/vector", "winner"]
    rows = [[str(e["tasks"]), f"{e['loop_s']:.3f}", f"{e['vector_s']:.3f}",
             f"{e['speedup']:.2f}x",
             "vector" if e["vector_wins"] else "loop"]
            for e in payload["widths"]]
    return (format_aligned_table(headers, rows)
            + f"\nmeasured small-plane threshold: "
              f"{payload['measured_small_plane_tasks']} task(s) "
              f"(pinned default {payload['pinned_default']}; override via "
              f"SystemConfig.small_plane_tasks)")


def compare_to_baseline(payload: Dict[str, Any], baseline: Dict[str, Any],
                        max_regression: float = 0.1,
                        max_regression_case: Optional[float] = None,
                        ) -> Dict[str, Any]:
    """Compare a fresh core-bench payload against a committed baseline.

    The headline figure is ``geomean_speedup``, which is scale- and
    machine-robust in a way raw wall-clock times are not; ``regressed`` is
    set when the fresh geomean falls more than ``max_regression``
    (fractional) below the baseline's.

    With ``max_regression_case`` the comparison additionally checks every
    *case* present in both payloads (matched by name): a case whose
    speedup falls more than that fraction below its baseline speedup is
    listed in ``regressed_cases`` and also sets ``regressed``, so a
    regression confined to one scenario cannot hide inside a healthy
    geomean.  Cases only present on one side are reported in
    ``new_cases`` / ``missing_cases`` and never flag.
    """
    if max_regression < 0:
        raise ValueError("max_regression cannot be negative")
    if max_regression_case is not None and max_regression_case < 0:
        raise ValueError("max_regression_case cannot be negative")
    for name, part in (("payload", payload), ("baseline", baseline)):
        if "geomean_speedup" not in part:
            raise ValueError(f"{name} carries no geomean_speedup; is it a "
                             f"'core' benchmark payload?")
    current = float(payload["geomean_speedup"])
    reference = float(baseline["geomean_speedup"])
    floor = reference * (1.0 - max_regression)

    base_by_name = {e["name"]: e for e in baseline.get("scenarios", ())}
    fresh_by_name = {e["name"]: e for e in payload.get("scenarios", ())}
    cases: List[Dict[str, Any]] = []
    regressed_cases: List[str] = []
    for name, entry in fresh_by_name.items():
        ref = base_by_name.get(name)
        if ref is None:
            continue
        case_current = float(entry["speedup"])
        case_reference = float(ref["speedup"])
        case = {
            "name": name,
            "baseline_speedup": case_reference,
            "current_speedup": case_current,
            "ratio": (case_current / case_reference
                      if case_reference > 0 else 0.0),
        }
        if max_regression_case is not None:
            case_floor = case_reference * (1.0 - max_regression_case)
            case["floor"] = case_floor
            case["regressed"] = case_current < case_floor
            if case["regressed"]:
                regressed_cases.append(name)
        cases.append(case)

    return {
        "baseline_geomean": reference,
        "current_geomean": current,
        "ratio": current / reference if reference > 0 else 0.0,
        "floor": floor,
        "max_regression": max_regression,
        "max_regression_case": max_regression_case,
        "cases": cases,
        "regressed_cases": regressed_cases,
        "new_cases": sorted(set(fresh_by_name) - set(base_by_name)),
        "missing_cases": sorted(set(base_by_name) - set(fresh_by_name)),
        "geomean_regressed": current < floor,
        "regressed": current < floor or bool(regressed_cases),
        "baseline_scale": baseline.get("scale"),
        "current_scale": payload.get("scale"),
    }


def format_baseline_comparison(comparison: Dict[str, Any]) -> str:
    """Verdict of :func:`compare_to_baseline`, offending cases included."""
    verdict = "REGRESSION" if comparison["regressed"] else "ok"
    lines = [f"baseline geomean {comparison['baseline_geomean']:.2f}x "
             f"(scale={comparison['baseline_scale']}) vs current "
             f"{comparison['current_geomean']:.2f}x "
             f"(scale={comparison['current_scale']}): "
             f"{comparison['ratio']:.2f}x of baseline, floor "
             f"{comparison['floor']:.2f}x -> {verdict}"]
    by_name = {c["name"]: c for c in comparison.get("cases", ())}
    for name in comparison.get("regressed_cases", ()):
        case = by_name[name]
        lines.append(f"  case {name}: {case['baseline_speedup']:.2f}x -> "
                     f"{case['current_speedup']:.2f}x "
                     f"({case['ratio']:.2f}x of baseline, floor "
                     f"{case['floor']:.2f}x) REGRESSION")
    for name in comparison.get("missing_cases", ()):
        lines.append(f"  case {name}: in baseline only (not compared)")
    for name in comparison.get("new_cases", ()):
        lines.append(f"  case {name}: new, no baseline (not compared)")
    return "\n".join(lines)


def format_sweep_table(payload: Dict[str, Any]) -> str:
    """Aligned human-readable summary of a sweep benchmark payload."""
    from .reporting import format_aligned_table

    headers = ["cell", "robustness", "metrics_equal"]
    rows = [[c["label"], f"{c['robustness_pct']:.2f}%", str(c["metrics_equal"])]
            for c in payload["cells"]]
    return (format_aligned_table(headers, rows)
            + f"\ncold pool: {payload['cold_pool_s']:.3f}s  warm pool: "
              f"{payload['warm_pool_s']:.3f}s  speedup: "
              f"{payload['speedup']:.2f}x  throughput: "
              f"{payload['throughput_trials_per_s']:.2f} trials/s "
              f"(n_jobs={payload['n_jobs']}, scale={payload['scale']})")


def format_bench_table(payload: Dict[str, Any]) -> str:
    """Aligned human-readable summary of a benchmark payload."""
    from .reporting import format_aligned_table

    headers = ["case", "compare", "baseline_s", "contender_s", "speedup",
               "robustness"]
    rows = [[e["name"], e.get("compare", "incremental"),
             f"{e['naive_s']:.3f}", f"{e['incremental_s']:.3f}",
             f"{e['speedup']:.2f}x", f"{e['robustness_pct']:.2f}%"]
            for e in payload["scenarios"]]
    repeats = payload.get("repeats", 1)
    suffix = f", min-of-{repeats}" if repeats > 1 else ""
    return (format_aligned_table(headers, rows)
            + f"\ngeomean speedup: {payload['geomean_speedup']:.2f}x "
              f"(scale={payload['scale']}, trials={payload['trials']}"
              f"{suffix})")


def bench_history(path: str = "benchmarks/perf/BENCH_core.json",
                  limit: Optional[int] = None,
                  repo_root: Optional[str] = None) -> Dict[str, Any]:
    """Speedup history of a committed bench payload across git commits.

    Walks ``git log`` for every commit touching ``path``, reads the payload
    as of each commit (``git show <sha>:<path>``) and extracts the geomean
    plus per-case speedups.  Commits where the file is missing or not a core
    payload are skipped, so the history survives schema growth.  Raises
    :class:`RuntimeError` outside a git work tree or when no commit carries
    a readable payload -- ``repro bench --trend`` turns that into a clean
    exit-2 message.
    """
    import subprocess

    root = os.path.abspath(repo_root or os.getcwd())
    absolute = path if os.path.isabs(path) else os.path.join(root, path)
    rel = os.path.relpath(absolute, root)

    def _git(*argv: str) -> "subprocess.CompletedProcess":
        return subprocess.run(["git", *argv], cwd=root, capture_output=True,
                              text=True)

    log = _git("log", "--format=%H%x00%h%x00%ct%x00%s", "--", rel)
    if log.returncode != 0:
        raise RuntimeError(f"git log failed under {root!r}: "
                           f"{log.stderr.strip() or 'is this a git repo?'}")
    commits: List[Dict[str, Any]] = []
    for line in log.stdout.splitlines():
        if not line.strip():
            continue
        sha, short, timestamp, subject = line.split("\x00", 3)
        show = _git("show", f"{sha}:{rel}")
        if show.returncode != 0:
            continue  # file absent at this commit (e.g. before it existed)
        try:
            payload = json.loads(show.stdout)
        except json.JSONDecodeError:
            continue
        if "geomean_speedup" not in payload:
            continue  # not a core payload at this point of history
        commits.append({
            "sha": sha,
            "short": short,
            "timestamp": int(timestamp),
            "subject": subject,
            "geomean_speedup": float(payload["geomean_speedup"]),
            "scale": payload.get("scale"),
            "cases": {e["name"]: float(e["speedup"])
                      for e in payload.get("scenarios", ())},
        })
    commits.reverse()  # oldest first, so the chart reads left to right
    if limit is not None and limit > 0:
        commits = commits[-limit:]
    if not commits:
        raise RuntimeError(f"no commit under {root!r} carries a readable "
                           f"core bench payload at {rel!r}")
    return {"path": rel, "commits": commits}


def format_bench_trend(history: Dict[str, Any], width: int = 60,
                       height: int = 12) -> str:
    """ASCII chart + table of a payload's speedup trajectory over commits."""
    from ..viz.ascii_charts import line_chart
    from .reporting import format_aligned_table

    commits = history["commits"]
    x_values = [c["short"] for c in commits]
    series: Dict[str, List[float]] = {
        "geomean": [c["geomean_speedup"] for c in commits]}
    # Only cases present at every commit chart cleanly; newcomers are still
    # visible in the table below.
    common = set(commits[0]["cases"])
    for commit in commits[1:]:
        common &= set(commit["cases"])
    for name in sorted(common):
        series[name] = [c["cases"][name] for c in commits]
    chart = ""
    if len(commits) > 1:
        chart = line_chart(series, x_values, height=height, width=width,
                           title=f"speedup history of {history['path']} "
                                 f"({len(commits)} commits)",
                           y_label="x") + "\n\n"
    headers = ["commit", "geomean", "scale", "subject"]
    rows = [[c["short"], f"{c['geomean_speedup']:.2f}x", str(c["scale"]),
             c["subject"][:56]] for c in commits]
    return chart + format_aligned_table(headers, rows)


def write_bench_json(payload: Dict[str, Any], path: str) -> None:
    """Persist a benchmark payload as pretty-printed JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
