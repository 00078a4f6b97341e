"""Seeded leaf-mutation corpus over a service snapshot.

Every malformed snapshot must either restore or fail with a ``ValueError``
naming where it went wrong: the mutated leaf itself (``snapshot
tasks[2].id must be an integer, got [1, 'a']``) or the record or section
whose own check rejected the value (``snapshot tasks[5] is invalid:
deadline must be after arrival``).  No other exception may escape, and no
integer field may accept a bool, float, string, list or dict.

The corpus is fixed: 300 cases drawn with seed 1 from every leaf outside
the ``spec`` section (empty containers count as leaves) of one crash-restart
+ tiered-edge-cloud service snapshot at t=3000, each replaced by one of the
values below.
"""

from __future__ import annotations

import functools
import json
import random
import re
from typing import Any, Iterator, List, Optional, Tuple

import pytest

from repro.experiments.cli import main
from repro.stream import StreamSpec, StreamingSimulation, restore_state

SPEC = StreamSpec(seed=3, faults_name="crash-restart",
                  fault_params={"mtbf": 800, "repair_mean": 200},
                  topology_name="tiered-edge-cloud")

FUZZ_VALUES = [None, [], {}, "x", -1, 1e308, float("nan"), True, [1, "a"],
               {"k": 1}, 2 ** 70, -0.5, ""]
CASES = 300
SEED = 1

Path = Tuple[Any, ...]

_STEP = re.compile(r"\.?([A-Za-z_]\w*)|\[(\d+)\]|\['([^']*)'\]")
_NAMED = re.compile(r"snapshot ((?:[A-Za-z_]\w*)(?:\.[A-Za-z_]\w*|\[\d+\]"
                    r"|\['[^']*'\])*)")


@functools.lru_cache(maxsize=None)
def _snapshot_json() -> str:
    service = StreamingSimulation(SPEC)
    service.run_for(3000)
    return json.dumps(service.snapshot())


def _leaves(value: Any, path: Path = ()) -> Iterator[Path]:
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path


def _get(payload: Any, path: Path) -> Any:
    for step in path:
        payload = payload[step]
    return payload


def _set(payload: Any, path: Path, value: Any) -> None:
    _get(payload, path[:-1])[path[-1]] = value


def _steps(text: str) -> Path:
    steps: List[Any] = []
    for match in _STEP.finditer(text):
        name, index, key = match.groups()
        steps.append(int(index) if index is not None
                     else name if name is not None else key)
    return tuple(steps)


def _names_leaf_or_ancestor(message: str, path: Path) -> bool:
    """True when ``message`` names ``path`` or one of its ancestors (a
    path after ``snapshot ``; the leaf's section at least)."""
    for match in _NAMED.finditer(message):
        named = _steps(match.group(1))
        if named and path[:len(named)] == named:
            return True
    return False


def _is_plain_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cases() -> List[Tuple[Path, Any]]:
    payload = json.loads(_snapshot_json())
    leaves = [path for path in _leaves(payload) if path[0] != "spec"]
    rng = random.Random(SEED)
    return [(rng.choice(leaves), rng.choice(FUZZ_VALUES))
            for _ in range(CASES)]


def _outcome(payload: Any, path: Path, value: Any) -> Optional[str]:
    """``None`` when the case behaves, else what went wrong."""
    original = _get(payload, path)
    _set(payload, path, value)
    try:
        restore_state(payload)
    except ValueError as exc:
        if not _names_leaf_or_ancestor(str(exc), path):
            return f"names no path: {exc}"
    else:
        if _is_plain_int(original) and not (
                value is None or _is_plain_int(value)):
            return "an integer field accepted it"
    finally:
        _set(payload, path, original)
    return None


def test_corpus_restores_or_names_the_bad_path():
    payload = json.loads(_snapshot_json())
    failures = []
    for path, value in _cases():
        problem = _outcome(payload, path, value)
        if problem is not None:
            failures.append(f"{path} = {value!r}: {problem}")
    assert not failures, "\n".join(failures)


def test_cli_names_a_bad_task_id(tmp_path, capsys):
    payload = json.loads(_snapshot_json())
    payload["tasks"][2]["id"] = [1, "a"]
    snap = tmp_path / "bad.json"
    snap.write_text(json.dumps(payload))
    assert main(["serve", "--restore", str(snap), "--horizon", "4000",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "snapshot tasks[2].id must be an integer, got [1, 'a']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, message", [
    (("traffic_consumed",),
     "snapshot traffic_consumed is invalid: 1180591620717411303424 "
     "exceeds next_task_id"),
    (("faults", "consumed"),
     "snapshot faults.consumed is invalid: 1180591620717411303424 "
     "exceeds dispatched plus pending engine events"),
])
def test_cli_rejects_a_stream_position_past_its_count(path, message,
                                                      tmp_path, capsys):
    # Restore replays a stream position one event at a time, so an
    # unbounded one would never return.
    payload = json.loads(_snapshot_json())
    _set(payload, path, 2 ** 70)
    snap = tmp_path / "far.json"
    snap.write_text(json.dumps(payload))
    assert main(["serve", "--restore", str(snap), "--horizon", "4000",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, message", [
    ("type_id", "is invalid: unknown task type 999"),
    ("machine_id", "is invalid: unknown machine 999"),
])
def test_cli_rejects_a_task_outside_the_platform(field, message, tmp_path,
                                                 capsys):
    # A queued task of an unknown type used to restore and crash the next
    # run_for with a KeyError; both references are checked at restore.
    payload = json.loads(_snapshot_json())
    index = next(i for i, task in enumerate(payload["tasks"])
                 if task["status"] == "queued")
    payload["tasks"][index][field] = 999
    snap = tmp_path / "foreign.json"
    snap.write_text(json.dumps(payload))
    assert main(["serve", "--restore", str(snap), "--horizon", "4000",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"snapshot tasks[{index}] {message}" in err
    assert "Traceback" not in err
