"""End-to-end tests of ``repro serve`` and the new list commands."""

import json

import pytest

from repro.experiments.cli import build_parser, main
from repro.stream import StreamPlan, StreamSpec


def strip_perf(payload):
    """Remove the chunking-dependent perf fields before comparing runs."""
    payload["metrics"].pop("perf", None)
    for window in payload["timeline"]["windows"]:
        window.pop("perf", None)
    return payload


class TestParser:
    def test_serve_parses(self):
        args = build_parser().parse_args(
            ["serve", "--traffic", "burst", "--horizon", "5000",
             "--snapshot-every", "1000", "--snapshot", "s.json"])
        assert args.figure == "serve"
        assert args.traffic == "burst"
        assert args.horizon == 5000
        assert args.snapshot_every == 1000

    def test_new_list_commands_parse(self):
        for command in ("list-traffic", "list-uncertainty"):
            assert build_parser().parse_args([command]).figure == command


class TestListCommands:
    def test_list_traffic(self, capsys):
        assert main(["list-traffic"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "burst", "diurnal", "mixed"):
            assert name in out

    def test_list_uncertainty(self, capsys):
        assert main(["list-uncertainty"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "network_latency", "machine_stall", "composed"):
            assert name in out


class TestServe:
    def test_basic_run_reports_windows(self, capsys):
        assert main(["serve", "--horizon", "2000", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "robustness" in captured.out
        assert "windows closed : 4" in captured.out
        assert "[t=" in captured.err  # live dashboard lines

    def test_json_output(self, capsys):
        assert main(["serve", "--horizon", "2000", "--seed", "1",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["horizon"] == 2000
        assert payload["spec"]["traffic_name"] == "steady"
        assert len(payload["timeline"]["windows"]) == 4

    def test_traffic_and_params_flags(self, capsys):
        assert main(["serve", "--traffic", "burst", "--traffic-param",
                     "burst_multiplier=6", "--horizon", "1000", "--quiet",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["traffic_name"] == "burst"
        assert payload["spec"]["traffic_params"] == {"burst_multiplier": 6}

    def test_snapshot_restore_is_bit_identical(self, tmp_path, capsys):
        snap = tmp_path / "svc.json"
        assert main(["serve", "--horizon", "1500", "--seed", "2",
                     "--snapshot", str(snap), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["serve", "--restore", str(snap), "--horizon", "3000",
                     "--quiet", "--json"]) == 0
        resumed = strip_perf(json.loads(capsys.readouterr().out))
        assert main(["serve", "--horizon", "3000", "--seed", "2",
                     "--quiet", "--json"]) == 0
        straight = strip_perf(json.loads(capsys.readouterr().out))
        assert resumed == straight

    def test_snapshot_every_writes_checkpoints(self, tmp_path, capsys):
        snap = tmp_path / "svc.json"
        assert main(["serve", "--horizon", "3000", "--snapshot-every",
                     "1000", "--snapshot", str(snap), "--quiet"]) == 0
        err = capsys.readouterr().err
        for t in (1000, 2000, 3000):
            assert f"snapshot at t={t}" in err
        payload = json.loads(snap.read_text())
        assert payload["horizon"] == 3000

    def test_plan_file_drives_serve(self, tmp_path, capsys):
        path = tmp_path / "svc.toml"
        StreamPlan(name="svc", stream=StreamSpec(traffic_name="diurnal",
                                                 seed=3),
                   horizon=2000).to_file(str(path))
        assert main(["serve", "--plan", str(path), "--quiet", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["traffic_name"] == "diurnal"
        assert payload["horizon"] == 2000

    def test_chart_renders(self, capsys):
        assert main(["serve", "--horizon", "2000", "--quiet",
                     "--chart"]) == 0
        assert "service timeline" in capsys.readouterr().out


class TestServeErrors:
    def test_snapshot_every_requires_snapshot_path(self, capsys):
        assert main(["serve", "--horizon", "1000",
                     "--snapshot-every", "500"]) == 2
        assert "--snapshot" in capsys.readouterr().err

    def test_unknown_traffic_reports_cleanly(self, capsys):
        assert main(["serve", "--traffic", "stady", "--horizon",
                     "1000"]) == 2
        err = capsys.readouterr().err
        assert "repro serve: error" in err
        assert "steady" in err  # did-you-mean suggestion

    def test_restore_missing_file_reports_cleanly(self, capsys):
        assert main(["serve", "--restore", "/nonexistent/snap.json",
                     "--horizon", "1000"]) == 2
        assert "repro serve: error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind", [("[1, 2]", "list"),
                                            ('"s"', "str")])
    def test_non_object_payloads_report_cleanly(self, tmp_path, capsys,
                                                text, kind):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for argv, what in ((["--restore", str(path), "--horizon", "1000"],
                            "snapshot"),
                           (["--plan", str(path)], "stream plan")):
            assert main(["serve", *argv]) == 2
            err = capsys.readouterr().err
            assert f"{what} payload must be a mapping, got {kind}" in err
            assert "Traceback" not in err

    def test_restore_names_a_missing_key(self, tmp_path, capsys):
        snap = tmp_path / "svc.json"
        assert main(["serve", "--horizon", "1000", "--snapshot", str(snap),
                     "--quiet"]) == 0
        capsys.readouterr()
        payload = json.loads(snap.read_text())
        no_task_id, bad_task, bad_machine, bad_rng = (
            json.loads(snap.read_text()) for _ in range(4))
        del no_task_id["tasks"][0]["id"]
        bad_task["tasks"][0] = 5
        bad_machine["machines"][1] = "x"
        bad_rng["rng_state"]["uinteger"] = 2 ** 70
        for broken, message in (
                (no_task_id, "snapshot tasks[0] is missing key 'id'"),
                ({k: v for k, v in payload.items() if k != "counters"},
                 "snapshot is missing key 'counters'"),
                ({**payload, "spec": [1]},
                 "snapshot spec must be a mapping, got list"),
                ({**payload, "counters": [1, 2]},
                 "snapshot counters must be a mapping, got list"),
                ({**payload, "rng_state": None},
                 "snapshot rng_state must be a mapping, got NoneType"),
                (bad_task, "snapshot tasks[0] must be a mapping, got int"),
                (bad_machine,
                 "snapshot machines[1] must be a mapping, got str"),
                (bad_rng, "snapshot rng_state is invalid: "),
                ({**payload, "tasks": 5},
                 "snapshot tasks must be a list, got int"),
                ({**payload, "machines": {"0": {}}},
                 "snapshot machines must be a list, got dict"),
                ({**payload, "batch_queue": {}},
                 "snapshot batch_queue must be a list, got dict"),
                ({**payload, "batch_queue": [[1]]},
                 "snapshot batch_queue[0] must be a [task_id, deadline] "
                 "pair, got [1]"),
                ({**payload, "engine": {**payload["engine"], "pending": 3}},
                 "snapshot engine.pending must be a list, got int"),
                ({**payload, "engine": {**payload["engine"],
                                        "pending": [7]}},
                 "snapshot engine.pending[0] must be a mapping, got int"),
                ({**payload, "machines": [{**payload["machines"][0],
                                           "pending": "x"}]},
                 "snapshot machines[0].pending must be a list, got str"),
                ({**payload, "live": [1, 2]},
                 "snapshot live must be a mapping, got list")):
            snap.write_text(json.dumps(broken))
            assert main(["serve", "--restore", str(snap),
                         "--horizon", "2000", "--quiet"]) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

    def test_uncertainty_param_requires_uncertainty(self, capsys):
        assert main(["serve", "--horizon", "1000",
                     "--uncertainty-param", "mean_latency=5"]) == 2
        assert "--uncertainty" in capsys.readouterr().err
