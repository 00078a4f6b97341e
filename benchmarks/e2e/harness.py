"""Parent side of the benchmark: spawn children, time them, check their
outputs and reduce them to the metrics named in ``BENCHMARK.json``.

A *unit* is one child process running one workload once.  A *run* is the
units of one workload and seed started back to back for a set number of
seconds, reduced to medians.  The parent never imports ``repro``.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "golden.json")
#: Scratch space of the children (snapshots, spools), inside the checkout.
WORK = os.path.join(ROOT, ".bench_work")

#: Seed of each workload when none is given; 42 for the others.
DEFAULT_SEEDS = {"stream-steady": 7}
#: Seeds held out from tuning; ``golden.json`` pins their outputs too.
HELD_OUT_SEEDS = (1042, 2042)
#: Set-up is measured at least this many times per untraced run; set-up-only
#: children make up the count when fewer full units fit, and use the time
#: left after the last unit.
MIN_SETUPS = 3
#: Time of a set-up-only child from spawn to exit, in set-up times.
SETUP_CHILD_COST = 1.3
#: Time of a traced unit, in untraced units of the same workload.
TRACED_UNIT_COST = 1.3
#: Longest a single child may take before it counts as failed.
CHILD_TIMEOUT_S = 120.0
#: End-to-end metrics of the stream workload alone.  BENCHMARK.json lists
#: them under ``per_layer``, which holds no bounds, so they are kept here.
STREAM_BOUNDS = {"tick_p50_ms": 0.25, "tick_p95_ms": 0.25,
                 "checkpoint_p50_ms": 0.25}


class UnitFailed(RuntimeError):
    """A child crashed, timed out or printed no result."""


def default_seed(workload: str) -> int:
    return DEFAULT_SEEDS.get(workload, 42)


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` of this checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout() -> Optional[str]:
    """Why the simulator cannot run from this checkout, or ``None``."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return f"no simulator sources under {os.path.join(ROOT, 'src')}"
    return None


def load_golden() -> Dict[str, Dict[str, str]]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def host() -> Dict[str, Any]:
    """Fingerprint of the machine the numbers come from."""
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy}


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile, refused unless at least ten samples lie
    beyond it (so a p95 needs 200 samples)."""
    n = len(samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{pct:g} of {n} samples has {n - rank} beyond it; "
                         f"at least 10 are needed")
    return sorted(samples)[rank - 1]


@contextlib.contextmanager
def workdir() -> Iterator[str]:
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def spawn(workload: str, seed: int, where: str, *flags: str) -> Dict[str, Any]:
    """Run one child and return its unit result, timed from spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "benchmarks.e2e.child", workload, str(seed),
           where, *flags]
    spawned = time.perf_counter()
    # A new process group, so a timeout also kills the plan workers the
    # child started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise UnitFailed(f"{workload}: child timed out "
                         f"after {CHILD_TIMEOUT_S:g} s") from None
    exited = time.perf_counter()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise UnitFailed(f"{workload}: child exited {proc.returncode}: {tail}")
    return finish_unit(json.loads(lines[-1]), spawned, exited)


def finish_unit(unit: Dict[str, Any], spawned: float, exited: float
                ) -> Dict[str, Any]:
    """Add the times only the parent sees to a child's unit result."""
    unit["setup_s"] = unit["ready"] - spawned
    unit["wall_s"] = exited - spawned
    return unit


def unit_problems(workload: str, seed: int, unit: Dict[str, Any],
                  golden: Dict[str, Dict[str, str]]) -> List[str]:
    """The child's own checks plus the golden digest, where one exists."""
    problems = list(unit["problems"])
    want = golden.get(workload, {}).get(str(seed))
    if want is not None and unit["digest"] != want:
        problems.append(f"digest {unit['digest'][:12]} differs from the "
                        f"golden {want[:12]}")
    return problems


def end_to_end(units: List[Dict[str, Any]], setups: List[float]
               ) -> Dict[str, float]:
    """Medians over the good units of one run."""
    med = statistics.median
    metrics = {
        "tasks_per_s": med(u["tasks"] / u["sim_s"] for u in units),
        "setup_s": med(setups),
        "wall_s": med(u["wall_s"] for u in units),
        "peak_rss_mb": med(u["peak_rss_mb"] for u in units),
        "robustness_pct": med(u["robustness_pct"] for u in units),
    }
    if units[0]["ticks_s"]:
        metrics.update(
            tick_p50_ms=med(1e3 * percentile(u["ticks_s"], 50) for u in units),
            tick_p95_ms=med(1e3 * percentile(u["ticks_s"], 95) for u in units),
            checkpoint_p50_ms=med(1e3 * percentile(u["checkpoints_s"], 50)
                                  for u in units))
    return metrics


def per_layer(metrics: Dict[str, float], traced: Dict[str, Any]
              ) -> Dict[str, float]:
    """Per-layer metrics: the traced unit's layers, the tracing overhead
    against the untraced median, and the stream latencies (measured
    untraced; zero on the other workloads)."""
    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = 100.0 * (
        metrics["tasks_per_s"] * traced["sim_s"] / traced["tasks"] - 1.0)
    for name in STREAM_BOUNDS:
        layers[name] = metrics.get(name, 0.0)
    return layers


def measure(workload: str, seed: int, seconds: float, traced: bool = False,
            spans_path: Optional[str] = None) -> Dict[str, Any]:
    """One run: untraced units back to back for ``seconds``, then
    set-up-only children in the time left.  A traced run keeps room in
    ``seconds`` for one traced unit, which it runs last, and runs no
    set-up-only children (its result line reports no ``setup_s``).  The
    first failed unit ends the run."""
    golden = load_golden()
    reserve = TRACED_UNIT_COST if traced else 0.0
    units: List[Dict[str, Any]] = []
    setups: List[float] = []
    errors: List[str] = []
    attempted = failed = 0
    start = time.perf_counter()

    def attempt(*flags: str) -> Optional[Dict[str, Any]]:
        nonlocal attempted, failed
        attempted += 1
        try:
            with workdir() as where:
                unit = spawn(workload, seed, where, *flags)
        except UnitFailed as exc:
            problems = [str(exc)]
        else:
            problems = []
            if "--setup-only" not in flags:
                problems = unit_problems(workload, seed, unit, golden)
                if units and unit["digest"] != units[0]["digest"]:
                    problems.append("digest differs between units of one "
                                    "seed")
        if problems:
            failed += 1
            errors.extend(f"{workload}/{seed}: {p}" for p in problems)
            return None
        return unit

    while True:
        unit = attempt()
        if unit is None:
            break
        units.append(unit)
        setups.append(unit["setup_s"])
        # Stop when one more unit of the average length (and the traced
        # unit, if any) would overrun.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(units) * (1 + reserve) > seconds:
            break
    # Set-up-only children fill the time no further unit fits into.
    while units and not failed and not traced:
        elapsed = time.perf_counter() - start
        if (len(setups) >= MIN_SETUPS
                and elapsed + SETUP_CHILD_COST * max(setups) > seconds):
            break
        unit = attempt("--setup-only")
        if unit is None:
            break
        setups.append(unit["setup_s"])
    run: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "units": len(units), "setups": len(setups),
        "digest": units[0]["digest"] if units else None,
        "metrics": end_to_end(units, setups) if units else {},
    }
    if traced and units and not failed:
        flags = ["--trace"] + (["--spans", spans_path] if spans_path else [])
        unit = attempt(*flags)
        if unit is not None:
            run["layers"] = per_layer(run["metrics"], unit)
            run["spans"] = unit["spans"]
    run.update(attempted=attempted, failed=failed, errors=errors,
               correct=not failed)
    return run


def result_line(run: Dict[str, Any], spec: Dict[str, Any], traced: bool
                ) -> Dict[str, Any]:
    """The one-line result of a run, with the metric set BENCHMARK.json
    names for ``--trace 0`` (end-to-end) or ``--trace 1`` (per-layer);
    empty when no unit (or no traced unit) of the run succeeded."""
    source = run.get("layers", {}) if traced else run["metrics"]
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in listed} if source else {}
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def golden(workloads: List[str]) -> Dict[str, Dict[str, str]]:
    """Digest of every workload at its default and held-out seeds."""
    out: Dict[str, Dict[str, str]] = {}
    for workload in workloads:
        out[workload] = {}
        for seed in (default_seed(workload),) + HELD_OUT_SEEDS:
            with workdir() as where:
                unit = spawn(workload, seed, where)
            if unit["problems"]:
                raise UnitFailed(f"{workload}/{seed}: {unit['problems']}")
            out[workload][str(seed)] = unit["digest"]
    return out
