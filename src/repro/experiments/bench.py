"""The crossover benchmark behind ``repro bench``.

:func:`run_crossover_benchmark` measures the plane width below which the
per-pair loop path beats the vector score-plane kernels on this host; the
result is the platform's ``SystemConfig.small_plane_tasks`` override.
End-to-end performance (tasks/s, set-up, wall time, peak RSS and the
per-layer split) is measured by the repository benchmark instead::

    python3 -m benchmarks.e2e bench --workload batch-drop --seed 42 --seconds 24
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from ..metrics.collector import TrialMetrics, collect_trial_metrics
from ..sim.fault_events import EXECUTION_SEED_OFFSET
from .runner import TrialSpec, build_system_for_trial

__all__ = ["run_crossover_benchmark", "format_crossover_table",
           "write_bench_json"]


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

    ``repeats`` times every run that many times and records the minimum.
    Both sides run ``numerics="exact"``, so their metrics must match
    bit-for-bit; a mismatch raises ``RuntimeError``.
    """
    from ..mapping.kernel import SMALL_PLANE_TASKS
    from ..workload.scenario import build_scenario

    if scale <= 0:
        raise ValueError("scale must be positive")
    if trials < 1:
        raise ValueError("need at least one trial")
    if repeats < 1:
        raise ValueError("need at least one repeat")
    if max_tasks < 1:
        raise ValueError("need at least one plane width")

    def timed(spec: TrialSpec) -> Tuple[float, TrialMetrics]:
        scenario = build_scenario(spec.scenario_name, level=spec.level,
                                  scale=spec.scale, gamma=spec.gamma,
                                  seed=spec.seed,
                                  queue_capacity=spec.queue_capacity)
        best = None
        metrics = None
        for _ in range(repeats):
            rng = np.random.default_rng(spec.seed + EXECUTION_SEED_OFFSET)
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
                        batch_window=w)
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


def write_bench_json(payload: Dict[str, Any], path: str) -> None:
    """Persist a benchmark payload as pretty-printed JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
