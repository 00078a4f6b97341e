"""Artifacts written before the engine switches left the product surface.

Plans, spool headers, stream plans and snapshots used to carry the engine
switches (``incremental``, ``scoring``), and plan fingerprints used to hash
``confidence``.  None of them changes results, so the files under
``golden/legacy/`` -- written by that code -- must still load, fingerprint
like the regenerated golden files and resume bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

from repro.api import ExperimentPlan, MemorySink
from repro.api.sinks import SpoolError, read_spool
from repro.experiments.cli import main
from repro.stream import StreamPlan, StreamSpec, StreamingSimulation

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
LEGACY = os.path.join(GOLDEN, "legacy")
PLAN_MINIMAL = os.path.join(HERE, "..", "..", "examples", "plan_minimal.toml")

#: The partial spool: ``repro plan run examples/plan_minimal.toml --spool
#: ... --max-cells 2``, stamped with the old fingerprint.
PARTIAL_SPOOL = os.path.join(LEGACY, "spool_minimal_partial.jsonl")


def _golden_fingerprint(stem: str) -> str:
    with open(os.path.join(GOLDEN, f"{stem}.fingerprint"),
              encoding="utf-8") as handle:
        return handle.read().strip()


@pytest.mark.parametrize("ext", ["toml", "json"])
@pytest.mark.parametrize("stem", ["plan_minimal", "plan_churn",
                                  "plan_locality", "plan_axes"])
def test_legacy_plan_files_load(stem, ext):
    if ext == "toml":
        pytest.importorskip("tomllib")
    plan = ExperimentPlan.from_file(os.path.join(LEGACY, f"{stem}.{ext}"))
    assert plan.fingerprint() == _golden_fingerprint(stem)
    execution = plan.to_dict()["execution"]
    assert "incremental" not in execution and "scoring" not in execution


def test_legacy_spool_header_pins_the_plan():
    plan = ExperimentPlan.from_spool(os.path.join(LEGACY,
                                                  "spool_header.jsonl"))
    assert plan.fingerprint() == _golden_fingerprint("plan_axes")


@pytest.fixture()
def legacy_spool(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    shutil.copyfile(PARTIAL_SPOOL, path)
    return path


@pytest.fixture(scope="module")
def uninterrupted():
    return ExperimentPlan.from_file(PLAN_MINIMAL).execute()


def test_legacy_spool_resumes(legacy_spool, uninterrupted):
    header, _ = read_spool(legacy_spool)
    plan = ExperimentPlan.from_file(PLAN_MINIMAL)
    assert header["fingerprint"] != plan.fingerprint()  # the old stamp
    sink = MemorySink()
    resumed = plan.resume(legacy_spool, sink=sink)
    assert sink.restored == [True, True, False, False]
    assert [r.label for r in resumed] == [r.label for r in uninterrupted]
    assert [r.trials for r in resumed] == [r.trials for r in uninterrupted]
    _, cells = read_spool(legacy_spool)
    assert sorted(cells) == [0, 1, 2, 3]
    # The completed spool still resumes: nothing is left to run.
    again = MemorySink()
    plan.resume(legacy_spool, sink=again)
    assert again.restored == [True] * 4


def test_legacy_spool_resumes_from_the_cli(legacy_spool, uninterrupted,
                                           capsys):
    assert main(["plan", "resume", legacy_spool, "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)["runs"]
    full = json.loads(uninterrupted.to_json())["runs"]
    keys = ("label", "robustness_pct", "robustness_ci", "makespan")
    assert [[run[k] for k in keys] for run in resumed] == \
        [[run[k] for k in keys] for run in full]


def test_legacy_spool_resumes_under_another_confidence(legacy_spool):
    plan = dataclasses.replace(ExperimentPlan.from_file(PLAN_MINIMAL),
                               confidence=0.9)
    assert len(plan.resume(legacy_spool)) == 4


def test_legacy_spool_still_rejects_other_plans(legacy_spool):
    plan = ExperimentPlan.from_file(PLAN_MINIMAL)
    with pytest.raises(SpoolError, match="different plan"):
        dataclasses.replace(plan, base_seed=43).resume(legacy_spool)


def test_tampered_header_fingerprint_rejected(legacy_spool):
    with open(legacy_spool, encoding="utf-8") as handle:
        lines = handle.readlines()
    header = json.loads(lines[0])
    header["fingerprint"] = "0" * 16
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    with open(legacy_spool, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    with pytest.raises(SpoolError, match="internally inconsistent"):
        ExperimentPlan.from_spool(legacy_spool)
    with pytest.raises(SpoolError, match="internally inconsistent"):
        ExperimentPlan.from_file(PLAN_MINIMAL).resume(legacy_spool)


def test_legacy_stream_plan_loads():
    legacy = StreamPlan.from_file(os.path.join(LEGACY, "stream_plan.json"))
    assert legacy == StreamPlan.from_file(os.path.join(GOLDEN,
                                                       "stream_plan.json"))
    assert legacy.fingerprint() == _golden_fingerprint("stream_plan")


def test_unknown_keys_still_rejected_beside_legacy_ones():
    with pytest.raises(ValueError, match="unknown StreamSpec key"):
        StreamSpec.from_dict({"incremental": True, "scorng": "loop"})
    with pytest.raises(ValueError, match="plan execution"):
        ExperimentPlan.from_dict({"execution": {"scoring": "loop",
                                                "trails": 2}})


def test_snapshot_with_legacy_engine_keys_replays():
    spec = StreamSpec(traffic_name="steady", seed=3, mapper_name="PAM",
                      dropper_name="heuristic")
    service = StreamingSimulation(spec)
    service.run_until(1_500)
    payload = json.loads(json.dumps(service.snapshot()))
    payload["spec"].update(incremental=True, scoring="vector")
    restored = StreamingSimulation.restore(payload)
    assert restored.spec == spec
    service.run_until(3_000)
    restored.run_until(3_000)
    assert restored.metrics() == service.metrics()
    assert restored.timeline() == service.timeline()
