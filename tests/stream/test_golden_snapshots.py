"""Byte pins of service snapshots, restored timelines and a plan spool.

A snapshot or spool written by one build must restore or resume under the
next, and a restored service must write the same bytes again.  Each file
under ``tests/stream/golden/`` is the exact output of one producer below,
as compact JSON in the key order the writers use.  ``wall_time_s`` (the
one field that differs between two runs of the same configuration) is
zeroed wherever it appears before comparing.
"""

from __future__ import annotations

import functools
import json
import os
from typing import Any, Callable, Dict

import pytest

from repro.api.plan import ExperimentPlan
from repro.stream import StreamSpec, StreamingSimulation

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Clean, crash-restart + tiered topology, slowdown, and a topology that
#: moves data (the tiered topology's default ``task_bytes = 0`` moves
#: none, so only this service writes the topology section).
SERVICES: Dict[str, StreamSpec] = {
    "plain": StreamSpec(seed=3),
    "churn": StreamSpec(seed=3, faults_name="crash-restart",
                        fault_params={"mtbf": 800, "repair_mean": 200},
                        topology_name="tiered-edge-cloud"),
    "slowdown": StreamSpec(seed=4, faults_name="slowdown",
                           fault_params={"scope": "system"}),
    "transfers": StreamSpec(seed=5, topology_name="tiered-edge-cloud",
                            topology_params={"task_bytes": 64}),
}

SPOOL_PLAN = dict(scales=[0.002], droppers=["heuristic"], trials=2,
                  with_cost=True, faults="crash-restart",
                  topology="tiered-edge-cloud")

#: The same plan with data movement, so trials carry ``transfers``.
TRANSFER_SPOOL_PLAN = dict(SPOOL_PLAN, topology_params={"task_bytes": 64})


def zero_wall_time(value: Any) -> Any:
    """``value`` with every ``wall_time_s`` entry set to 0.0."""
    if isinstance(value, dict):
        return {key: 0.0 if key == "wall_time_s" else zero_wall_time(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [zero_wall_time(item) for item in value]
    return value


def _dumps(payload: Any) -> str:
    return json.dumps(zero_wall_time(payload)) + "\n"


@functools.lru_cache(maxsize=None)
def _service_files(name: str) -> Dict[str, str]:
    service = StreamingSimulation(SERVICES[name])
    service.run_for(3000)
    snapshot = json.loads(json.dumps(service.snapshot()))
    restored = StreamingSimulation.restore(snapshot)
    restored.run_for(1000)
    return {f"{name}_t3000.json": _dumps(snapshot),
            f"{name}_restored_t4000.json": _dumps(restored.snapshot()),
            f"{name}_restored_timeline.json": _dumps(
                restored.timeline().to_dict())}


def _spool(tmp: str, name: str, plan: Dict[str, Any]) -> str:
    path = os.path.join(tmp, name)
    ExperimentPlan(**plan).run_spooled(path)
    with open(path, encoding="utf-8") as handle:
        return "".join(json.dumps(zero_wall_time(json.loads(line)),
                                  sort_keys=True) + "\n"
                       for line in handle)


PRODUCERS: Dict[str, Callable[[str], str]] = {
    name: (lambda tmp, _s=service, _n=name: _service_files(_s)[_n])
    for service in SERVICES
    for name in (f"{service}_t3000.json", f"{service}_restored_t4000.json",
                 f"{service}_restored_timeline.json")}
PRODUCERS["spool.jsonl"] = lambda tmp: _spool(tmp, "spool.jsonl",
                                              SPOOL_PLAN)
PRODUCERS["spool_transfers.jsonl"] = lambda tmp: _spool(
    tmp, "spool_transfers.jsonl", TRANSFER_SPOOL_PLAN)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_golden_bytes(name, tmp_path):
    produced = PRODUCERS[name](str(tmp_path)).encode("utf-8")
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        assert produced == handle.read()


@pytest.mark.parametrize("service", sorted(SERVICES))
def test_restored_windows_count_forward(service):
    """A restored service's counters carry on from the snapshot's, so no
    window's counter delta is negative (rates are not counters)."""
    timeline = json.loads(
        _service_files(service)[f"{service}_restored_timeline.json"])
    for window in timeline["windows"]:
        for key, delta in (window["perf"] or {}).items():
            if not key.endswith("_rate"):
                assert delta >= 0, (window["index"], key, delta)
