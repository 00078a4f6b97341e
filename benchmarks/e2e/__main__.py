"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e bench --workload W --seed N --seconds T
                                   --trace 0|1
    python -m benchmarks.e2e run [--workload W ...] [--seed S] [--repeats N]
                                 [--trace FILE] [--append] --out FILE
    python -m benchmarks.e2e golden
    python -m benchmarks.e2e compare PARENT.json CHANGE.json

``bench`` is one run of one workload; its last output line is a JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json
names (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).  The
line is printed even when the run fails; its metrics are then empty if no
unit produced them, and the exit code is 1.  ``run`` repeats runs of
``run_seconds`` (from BENCHMARK.json) over the workloads, prints every
metric by name and unit and writes the runs to ``--out`` for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

from . import compare as compare_module
from . import harness


def _bench(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    run = harness.measure(args.workload, args.seed, args.seconds,
                         traced=bool(args.trace))
    for error in run["errors"]:
        print(f"error: {error}", file=sys.stderr)
    line = harness.result_line(run, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _summary(values: List[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.5g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.5g} [IQR {q1:.5g}-{q3:.5g}]"


def _print_runs(runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units["robustness_pct"] = "%"
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if "layers" not in r]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"== {workload} (seed {mine[0]['seed']}; {len(plain)} runs, "
              f"{sum(r['units'] for r in plain)} units; medians over runs)")
        names = dict.fromkeys(n for r in plain for n in r["metrics"])
        for name in names:
            values = [r["metrics"][name] for r in plain
                      if name in r["metrics"]]
            print(f"  {name:36s} {_summary(values):36s} {units[name]}")
        print(f"  {'error_rate':36s} {failed}/{attempted:<34d} "
              f"failed/attempted")
        for run in mine:
            for name, value in run.get("layers", {}).items():
                if name not in names:
                    print(f"  {name:36s} {value:<36.6g} {units[name]}")
        for run in mine:
            for error in run["errors"]:
                print(f"  error: {error}")


def _run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    payload: Dict[str, Any] = {"host": harness.host(),
                               "git": harness.git_sha(), "runs": []}
    if args.append and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            payload["runs"] = json.load(fh)["runs"]
    seeds = {w: args.seed if args.seed is not None else harness.default_seed(w)
             for w in workloads}
    runs: List[Dict[str, Any]] = []
    # Round-robin over workloads, so slow drift of the host spreads evenly.
    for _ in range(args.repeats):
        for workload in workloads:
            runs.append(harness.measure(workload, seeds[workload], seconds))
    if args.trace:
        open(args.trace, "w").close()
        for workload in workloads:
            runs.append(harness.measure(workload, seeds[workload], seconds,
                                       traced=True,
                                       spans_path=os.path.abspath(args.trace)))
    payload["runs"] += runs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    _print_runs(runs, spec)
    return 0 if all(r["correct"] for r in runs) else 1


def _golden(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    digests = harness.golden([w["name"] for w in spec["workloads"]])
    with open(harness.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.GOLDEN}")
    return 0


def _compare(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    lines, bad = compare_module.compare(args.parent, args.change, spec,
                                        harness.STREAM_BOUNDS)
    print("\n".join(lines))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="one run of one workload")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench.set_defaults(handler=_bench)

    run = sub.add_parser("run", help="repeated runs, printed and saved")
    run.add_argument("--workload", action="append")
    run.add_argument("--seed", type=int)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--trace", metavar="FILE",
                     help="add one traced run per workload; spans to FILE")
    run.add_argument("--append", action="store_true",
                     help="add the runs to an existing --out file")
    run.add_argument("--out", required=True)
    run.set_defaults(handler=_run)

    gold = sub.add_parser("golden", help="rewrite golden.json")
    gold.set_defaults(handler=_golden)

    comp = sub.add_parser("compare", help="verdicts of CHANGE against PARENT")
    comp.add_argument("parent")
    comp.add_argument("change")
    comp.set_defaults(handler=_compare)

    args = parser.parse_args(argv)
    problem = harness.check_checkout() if args.command != "compare" else None
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    for workload in ([args.workload] if args.command == "bench"
                     else getattr(args, "workload", None) or []):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(names)}")
    return args.handler(args, spec)


if __name__ == "__main__":
    sys.exit(main())
