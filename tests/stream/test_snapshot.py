"""The snapshot/resume bit-identity pin.

The acceptance property of the streaming subsystem: run-to-T -> snapshot ->
JSON round-trip -> restore -> run-to-U must equal run-straight-to-U on
``TrialMetrics`` and the metrics timeline (perf counters are
``compare=False`` -- a restored service has cold caches by design).
"""

import json

import pytest

from repro.metrics.robustness import robustness_report
from repro.sim.task import TaskStatus
from repro.stream import (StreamSpec, StreamingSimulation, read_snapshot,
                          restore_state, snapshot_state, write_snapshot)


def comparable(service):
    return service.metrics(), service.timeline()


def snapshot_round_trip(service):
    """Snapshot through an actual JSON encode/decode, as the CLI does."""
    return json.loads(json.dumps(snapshot_state(service)))


# Two traffic shapes x two mapper/dropper pairs, per the acceptance
# criteria; one extra case exercises the uncertainty injector's RNG state
# and one an active crash/restart fault process (fault RNG position, down
# set and pending fault events all live in the snapshot).
PIN_SPECS = [
    StreamSpec(traffic_name="steady", mapper_name="PAM",
               dropper_name="heuristic", seed=11),
    StreamSpec(traffic_name="steady", mapper_name="MM",
               dropper_name="react", seed=12),
    StreamSpec(traffic_name="burst", mapper_name="PAM",
               dropper_name="heuristic", seed=13,
               traffic_params={"burst_period": 1_000, "burst_length": 250}),
    StreamSpec(traffic_name="burst", mapper_name="MM",
               dropper_name="react", seed=14),
    StreamSpec(traffic_name="diurnal", mapper_name="PAM",
               dropper_name="heuristic", seed=15,
               uncertainty_name="network_latency",
               uncertainty_params={"mean_latency": 10.0}),
    StreamSpec(traffic_name="steady", mapper_name="PAM",
               dropper_name="heuristic", seed=16,
               faults_name="crash-restart",
               fault_params={"mtbf": 400.0, "repair_mean": 100.0}),
]


def _pin_id(s):
    suffix = ("-uncertain" if s.uncertainty_name != "none" else "") + (
        "-faulty" if s.faults_name != "none" else "")
    return f"{s.traffic_name}-{s.mapper_name}+{s.dropper_name}{suffix}"


class TestBitIdentityPin:
    @pytest.mark.parametrize("spec", PIN_SPECS,
                             ids=[_pin_id(s) for s in PIN_SPECS])
    def test_restore_continues_bit_identically(self, spec):
        T, U = 1_500, 3_000
        straight = StreamingSimulation(spec).run_until(U)

        paused = StreamingSimulation(spec).run_until(T)
        payload = snapshot_round_trip(paused)
        resumed = StreamingSimulation.restore(payload).run_until(U)

        assert comparable(resumed) == comparable(straight)

    def test_restored_service_can_snapshot_again(self):
        spec = PIN_SPECS[0]
        first = StreamingSimulation(spec).run_until(1_000)
        second = restore_state(snapshot_round_trip(first)).run_until(2_000)
        third = restore_state(snapshot_round_trip(second)).run_until(3_000)
        straight = StreamingSimulation(spec).run_until(3_000)
        assert comparable(third) == comparable(straight)

    def test_restore_with_different_chunk_size_is_identical(self):
        spec = PIN_SPECS[2]
        paused = StreamingSimulation(spec).run_until(1_500)
        payload = snapshot_round_trip(paused)
        resumed = StreamingSimulation.restore(payload,
                                              chunk_tasks=5).run_until(3_000)
        straight = StreamingSimulation(spec).run_until(3_000)
        assert comparable(resumed) == comparable(straight)

    @pytest.mark.parametrize("faults,params", [
        ("crash-restart", {"mtbf": 400.0, "repair_mean": 100.0}),
        ("slowdown", {"mean_interval": 300.0, "duration_mean": 120.0,
                      "factor": 3.0}),
        ("partition", {"mean_interval": 500.0, "duration_mean": 150.0}),
    ])
    def test_faulty_service_is_chunk_invariant(self, faults, params):
        """Chunking must not disturb the fault schedule: the onset stream
        depends only on the fault RNG, never on how the engine is driven."""
        spec = StreamSpec(traffic_name="steady", mapper_name="PAM",
                          dropper_name="heuristic", seed=3,
                          faults_name=faults, fault_params=params)
        straight = StreamingSimulation(spec).run_until(3_000)
        chunked = StreamingSimulation(spec, chunk_tasks=7)
        for point in (333, 1_777, 2_900, 3_000):
            chunked.run_until(point)
        assert comparable(chunked) == comparable(straight)
        paused = StreamingSimulation(spec).run_until(1_500)
        resumed = StreamingSimulation.restore(
            snapshot_round_trip(paused)).run_until(3_000)
        assert comparable(resumed) == comparable(straight)


class TestSnapshotPayload:
    def test_payload_is_json_serialisable(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(1_000)
        text = json.dumps(snapshot_state(service))
        assert "repro-stream-snapshot/v1" in text

    def test_payload_carries_position(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(1_000)
        payload = snapshot_state(service)
        assert payload["horizon"] == 1_000
        assert payload["traffic_consumed"] == payload["next_task_id"]
        assert payload["traffic_consumed"] > 0
        assert payload["engine"]["now"] == 1_000

    def test_format_marker_enforced(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(500)
        payload = snapshot_state(service)
        payload["format"] = "something-else"
        with pytest.raises(ValueError, match="not a stream snapshot"):
            restore_state(payload)

    def test_unknown_machine_rejected(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(500)
        payload = snapshot_round_trip(service)
        payload["machines"][0]["id"] = 999
        with pytest.raises(ValueError, match="unknown machine"):
            restore_state(payload)

    def test_fault_state_rides_in_the_payload(self):
        spec = PIN_SPECS[5]
        service = StreamingSimulation(spec).run_until(2_000)
        payload = snapshot_round_trip(service)
        faults = payload["faults"]
        assert faults["consumed"] > 0
        assert set(faults["counters"]) == {"num_crashes", "num_requeued_tasks",
                                           "num_crash_lost", "partition_time"}

    def test_clean_payload_carries_no_fault_key(self):
        # Fault-free snapshots must stay byte-compatible with the pre-fault
        # payload format.
        service = StreamingSimulation(PIN_SPECS[0]).run_until(1_000)
        assert "faults" not in snapshot_state(service)

    def test_file_helpers_round_trip(self, tmp_path):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(1_000)
        path = tmp_path / "snap.json"
        written = write_snapshot(service, str(path))
        loaded = read_snapshot(str(path))
        assert loaded == json.loads(json.dumps(written))
        resumed = StreamingSimulation.restore(loaded).run_until(2_000)
        straight = StreamingSimulation(PIN_SPECS[0]).run_until(2_000)
        assert comparable(resumed) == comparable(straight)


def _terminal(task):
    return TaskStatus(task["status"]).is_terminal


class TestFinishedCounters:
    """A snapshot keeps the in-flight tasks and counts the finished ones
    by status, so its task section tracks the work in flight, not uptime."""

    def test_snapshot_holds_no_finished_task(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(4_000)
        payload = snapshot_round_trip(service)
        assert payload["tasks"]
        assert not any(_terminal(task) for task in payload["tasks"])
        finished = payload["finished"]
        assert sum(finished.values()) + len(payload["tasks"]) == \
            payload["next_task_id"]
        counts = service.system.result().tasks_by_status()
        assert finished == {status.value: counts.get(status, 0)
                            for status in TaskStatus if status.is_terminal}

    def test_task_section_does_not_grow_with_uptime(self):
        # In-flight work fluctuates between checkpoints, so compare the
        # largest task section of the checkpoints taken every 250 units
        # over the second half of each uptime.
        uptime = 4_000
        service = StreamingSimulation(PIN_SPECS[0])

        def largest_section(end):
            sizes = []
            for horizon in range(end - uptime // 2 + 250, end + 1, 250):
                service.run_until(horizon)
                sizes.append(len(json.dumps(snapshot_state(service)["tasks"])))
            return max(sizes)

        at_1x = largest_section(uptime)
        at_4x = largest_section(4 * uptime)
        assert at_4x <= 1.2 * at_1x, (at_1x, at_4x)

    def test_section_is_written_once_a_task_finished(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(1)
        payload = snapshot_round_trip(service)
        assert "finished" not in payload
        resumed = restore_state(payload).run_until(1_000)
        straight = StreamingSimulation(PIN_SPECS[0]).run_until(1_000)
        assert comparable(resumed) == comparable(straight)

    def test_cancelled_completion_keeps_its_dropped_task(self):
        # At t=2000 a crash has cancelled task 135's completion, and the
        # requeued task was then dropped: the pending event still names it.
        spec = StreamSpec(seed=3, faults_name="crash-restart",
                          fault_params={"mtbf": 800, "repair_mean": 200},
                          topology_name="tiered-edge-cloud")
        paused = StreamingSimulation(spec).run_until(2_000)
        payload = snapshot_round_trip(paused)
        named = {event["task_id"] for event in payload["engine"]["pending"]
                 if event["kind"] == "completion"}
        kept = [task for task in payload["tasks"] if _terminal(task)]
        assert [task["id"] for task in kept] == [135]
        assert kept[0]["status"] == "dropped_proactive"
        assert 135 in named
        resumed = restore_state(payload).run_until(4_000)
        straight = StreamingSimulation(spec).run_until(4_000)
        assert comparable(resumed) == comparable(straight)

    def test_restored_service_writes_the_straight_layout(self):
        spec = PIN_SPECS[5]
        straight = StreamingSimulation(spec).run_until(3_000)
        resumed = restore_state(snapshot_round_trip(
            StreamingSimulation(spec).run_until(1_500))).run_until(3_000)
        # Perf counters, and the windows' perf deltas, are compare=False.
        layouts = []
        for service in (straight, resumed):
            payload = snapshot_round_trip(service)
            del payload["perf"], payload["live"]["last_perf"]
            for window in payload["live"]["closed"]:
                del window["perf"]
            layouts.append(payload)
        assert layouts[0] == layouts[1]

    def test_exclusion_needs_every_task(self):
        service = StreamingSimulation(PIN_SPECS[0]).run_until(1_000)
        resumed = restore_state(snapshot_round_trip(service))
        result = resumed.system.result()
        assert result.carried and result.num_tasks == len(
            service.system.result().tasks)
        with pytest.raises(ValueError, match="carried as counts only"):
            robustness_report(result, warmup=1, cooldown=0)
