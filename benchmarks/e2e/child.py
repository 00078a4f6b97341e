"""Child process of the benchmark: runs one workload once and prints one
JSON object, the *unit* result, on standard output.

    python -m benchmarks.e2e.child WORKLOAD SEED WORKDIR
        [--setup-only] [--trace] [--spans FILE]

The parent process times it from spawn to exit; the child reports
its ready mark (``perf_counter``, i.e. CLOCK_MONOTONIC, which both
processes share), the simulation section and its checks.  ``--setup-only``
exits at the ready mark.  ``--trace`` patches the simulator's public calls
to record spans (see ``tracing.py``); untraced children never import the
tracer.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_unit(workload: str, seed: int, workdir: str, setup_only: bool = False,
             traced: bool = False, spans_path: Optional[str] = None,
             sizes: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run ``workload`` once in this process and return the unit result."""
    start = time.perf_counter()
    from . import workloads
    import_s = time.perf_counter() - start

    tracer = None
    instrument = None
    if traced:
        from . import tracing
        tracer = tracing.Tracer(f"{workload}/{seed}")
        tracing.install(tracer)

        def instrument(system: Any) -> None:
            tracing.instrument(tracer, system)

    probe = workloads.Probe(setup_only, instrument)
    try:
        outcome = workloads.FUNCTIONS[workload](workload, seed, workdir,
                                                probe, **(sizes or {}))
    except workloads.SetupDone:
        return {"ready": probe.ready_at, "import_s": import_s}
    finally:
        if tracer is not None:
            tracer.unpatch()

    problems: List[str] = list(outcome.problems)
    unit: Dict[str, Any] = {
        "ready": probe.ready_at, "import_s": import_s,
        "sim_s": outcome.sim_s, "tasks": outcome.tasks,
        "robustness_pct": outcome.robustness_pct, "digest": outcome.digest,
        "ticks_s": outcome.ticks_s, "checkpoints_s": outcome.checkpoints_s,
        "peak_rss_mb": peak_rss_mb(), "problems": problems,
    }
    if tracer is not None:
        agg = tracing.self_times(tracer.spans)
        layers = tracing.layer_metrics(tracer, agg, outcome.counters)
        layers["repro.import_s"] = import_s
        run_s, self_sum = tracing.run_coverage(agg)
        if abs(run_s - self_sum) > 0.01 * run_s:
            problems.append(f"layer self times sum to {self_sum:.6f} s, "
                            f"sim.run spans last {run_s:.6f} s")
        unit["layers"] = layers
        unit["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write(spans_path)
    return unit


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    unit = run_unit(args.workload, args.seed, args.workdir,
                    setup_only=args.setup_only, traced=args.trace,
                    spans_path=args.spans)
    sys.stdout.write(json.dumps(unit) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
