"""Byte pins of every serialized plan, spool header and run config.

Plan files, spool headers and stream plans are hashed into fingerprints
and compared byte-wise on resume, so a refactor of how they are produced
must leave every byte in place.  Each file under ``tests/api/golden/`` is
the exact output of one producer below; a diff here means a previously
written plan, spool or snapshot would no longer resume.

``tests/api/golden/legacy/`` keeps the artifacts written while plans and
stream specs still carried the engine switches (``incremental``,
``scoring``) and fingerprinted ``confidence``: the plan files, a spool
header, a partial spool of ``examples/plan_minimal.toml`` and a stream
plan.  ``test_legacy_artifacts.py`` shows they still load and resume.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Callable, Dict

import pytest

from repro.api import Simulation
from repro.api.plan import ExperimentPlan
from repro.api.sinks import JsonlSpoolSink
from repro.stream import StreamPlan, StreamSpec

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
EXAMPLES = os.path.join(HERE, "..", "..", "examples")

#: Every optional axis bound, with a string-valued parameter on each
#: registry that takes one.
AXES_PLAN = dict(
    name="axes", levels=["30k"], scales=[0.002], mappers=["PAM"],
    droppers=[{"name": "heuristic", "params": {"beta": 1.0, "eta": 2}}],
    trials=1, base_seed=3, numerics="fast",
    uncertainty="network_latency",
    uncertainty_params={"mean_latency": 5.0, "jitter_probability": 0.1},
    faults="crash-restart",
    fault_params={"mtbf": 1500.0, "repair_mean": 300.0, "policy": "drop"},
    topology="tiered-edge-cloud",
    topology_params={"bandwidth": 48, "latency": 2, "task_bytes": 192})


def _example(stem: str) -> ExperimentPlan:
    return ExperimentPlan.from_file(os.path.join(EXAMPLES, f"{stem}.toml"))


def _axes_plan() -> ExperimentPlan:
    return ExperimentPlan(**AXES_PLAN)


def _spool_header(tmp: str) -> str:
    path = os.path.join(tmp, "spool.jsonl")
    sink = JsonlSpoolSink(path)
    sink.open(_axes_plan())
    sink.close(None)
    with open(path, encoding="utf-8") as handle:
        return handle.readline()


def _stream_plan() -> StreamPlan:
    spec = StreamSpec(
        traffic_name="burst", oversubscription=1.3, seed=5,
        mapper_name="MM", dropper_name="heuristic",
        dropper_params={"beta": 1.0, "eta": 2},
        traffic_params={"burst_multiplier": 4.0},
        uncertainty_name="machine_stall",
        uncertainty_params={"stall_probability": 0.05},
        faults_name="slowdown",
        fault_params={"factor": 3.0, "scope": "system"},
        topology_name="star-uplink", topology_params={"task_bytes": 64},
        numerics="fast", metrics_window=250)
    return StreamPlan(name="axes", stream=spec, horizon=4000,
                      snapshot_every=1000, warmup=500)


def _builder() -> Simulation:
    return (Simulation.scenario("spec", level="30k").scale(0.002)
            .arrivals("poisson").mapper("PAM")
            .dropper("heuristic", beta=1.0, eta=2).trials(1, base_seed=3)
            .uncertainty("network_latency", mean_latency=5.0)
            .faults("crash-restart", mtbf=1500.0, policy="drop")
            .topology("star-uplink", task_bytes=64))


@functools.lru_cache(maxsize=None)
def _run_config() -> str:
    run = _builder().numerics("fast").run()
    return json.dumps(run.config, indent=2, sort_keys=True) + "\n"


@functools.lru_cache(maxsize=None)
def _sweep_cell_config() -> str:
    sweep = _builder().sweep(mapper=["PAM", "MM"])
    return json.dumps(sweep.runs[1].config, indent=2, sort_keys=True) + "\n"


def _plan_files(stem: str, plan: Callable[[], ExperimentPlan]
                ) -> Dict[str, Callable[[], str]]:
    return {f"{stem}.toml": lambda: plan().to_toml(),
            f"{stem}.json": lambda: plan().to_json() + "\n",
            f"{stem}.fingerprint": lambda: plan().fingerprint() + "\n"}


PRODUCERS: Dict[str, Callable[..., str]] = {
    **_plan_files("plan_minimal", lambda: _example("plan_minimal")),
    **_plan_files("plan_churn", lambda: _example("plan_churn")),
    **_plan_files("plan_locality", lambda: _example("plan_locality")),
    **_plan_files("plan_axes", _axes_plan),
    "stream_plan.json": lambda: json.dumps(
        _stream_plan().to_dict(), indent=2, sort_keys=True) + "\n",
    "stream_plan.fingerprint": lambda: _stream_plan().fingerprint() + "\n",
    "run_config.json": _run_config,
    "sweep_cell_config.json": _sweep_cell_config,
}


@pytest.mark.parametrize("name", sorted(PRODUCERS) + ["spool_header.jsonl"])
def test_golden_bytes(name, tmp_path):
    produced = (_spool_header(str(tmp_path)) if name == "spool_header.jsonl"
                else PRODUCERS[name]())
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        expected = handle.read()
    assert produced.encode("utf-8") == expected
