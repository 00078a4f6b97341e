"""Tests of the declarative StreamPlan (service runs as data)."""

import pytest

from repro.stream import StreamPlan, StreamSpec, StreamingSimulation


class TestSerialisation:
    def test_dict_round_trip(self):
        plan = StreamPlan(name="svc", stream=StreamSpec(traffic_name="burst"),
                          horizon=10_000, snapshot_every=2_500)
        assert StreamPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown StreamPlan"):
            StreamPlan.from_dict({"name": "x", "horizons": 10})

    @pytest.mark.parametrize("extension", ["toml", "json"])
    def test_file_round_trip(self, tmp_path, extension):
        plan = StreamPlan(name="svc",
                          stream=StreamSpec(traffic_name="diurnal", seed=3),
                          horizon=8_000, snapshot_every=4_000)
        path = tmp_path / f"plan.{extension}"
        plan.to_file(str(path))
        assert StreamPlan.from_file(str(path)) == plan

    @pytest.mark.parametrize("name,text", [
        ("plan.toml", 'name = "svc"\n[stream]\nfaults_name = "slowdown"\n'
                      'fault_params = 3\n'),
        ("plan.json", '{"name": "svc", "stream": {"faults_name": "slowdown", '
                      '"fault_params": 3}}'),
    ], ids=["toml", "json"])
    def test_axis_params_must_be_a_table(self, tmp_path, name, text):
        pytest.importorskip("tomllib")
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match="fault_params must be a table "
                                             "of KEY = VALUE, got int"):
            StreamPlan.from_file(str(path))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            StreamPlan.from_file(str(path))

    def test_fingerprint_stable_and_distinct(self):
        a = StreamPlan(name="svc", horizon=10_000)
        b = StreamPlan(name="svc", horizon=10_000)
        c = StreamPlan(name="svc", horizon=20_000)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_describe_mentions_shape(self):
        text = StreamPlan(name="svc",
                          stream=StreamSpec(traffic_name="burst")).describe()
        assert "burst/PAM+heuristic" in text
        assert "svc" in text


class TestValidation:
    def test_needs_name(self):
        with pytest.raises(ValueError, match="name"):
            StreamPlan(name="")

    def test_horizon_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            StreamPlan(horizon=0)

    def test_snapshot_every_non_negative(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            StreamPlan(snapshot_every=-1)

    @pytest.mark.parametrize("payload,message", [
        ({"stream": {"queue_capacity": 6.5}},
         "queue_capacity must be an integer, got 6.5"),
        ({"stream": {"oversubscription": "1.5"}},
         "oversubscription must be a number, got '1.5'"),
        ({"stream": {"seed": True}}, "seed must be an integer, got True"),
        ({"horizon": 2500.5}, "horizon must be an integer, got 2500.5"),
    ])
    def test_scalar_types_checked(self, payload, message):
        with pytest.raises(ValueError) as err:
            StreamPlan.from_dict({"name": "svc", **payload})
        assert str(err.value) == message


class TestCheckpoints:
    def test_no_periodic_snapshots(self):
        assert StreamPlan(horizon=10_000).checkpoints() == [10_000]

    def test_periodic_checkpoints_end_at_horizon(self):
        plan = StreamPlan(horizon=10_000, snapshot_every=3_000)
        assert plan.checkpoints() == [3_000, 6_000, 9_000, 10_000]

    def test_aligned_cadence_has_no_duplicate_final(self):
        plan = StreamPlan(horizon=9_000, snapshot_every=3_000)
        assert plan.checkpoints() == [3_000, 6_000, 9_000]


class TestExecution:
    def test_run_reaches_horizon(self):
        plan = StreamPlan(name="svc", stream=StreamSpec(seed=1),
                          horizon=2_000)
        service = plan.run()
        assert service.horizon == 2_000
        assert len(service.timeline()) == 4

    def test_run_invokes_snapshot_hook_at_interior_points(self):
        plan = StreamPlan(name="svc", stream=StreamSpec(seed=1),
                          horizon=3_000, snapshot_every=1_000)
        points = []
        plan.run(on_snapshot=lambda t, payload: points.append(
            (t, payload["horizon"])))
        assert points == [(1_000, 1_000), (2_000, 2_000)]

    def test_run_equals_direct_drive(self):
        spec = StreamSpec(seed=2)
        plan = StreamPlan(name="svc", stream=spec, horizon=2_500,
                          snapshot_every=800)
        via_plan = plan.run()
        direct = StreamingSimulation(spec).run_until(2_500)
        assert via_plan.metrics() == direct.metrics()
        assert via_plan.timeline() == direct.timeline()

    def test_with_stream(self):
        plan = StreamPlan(name="svc")
        changed = plan.with_stream(traffic_name="burst", seed=7)
        assert changed.stream.traffic_name == "burst"
        assert changed.stream.seed == 7
        assert changed.horizon == plan.horizon
