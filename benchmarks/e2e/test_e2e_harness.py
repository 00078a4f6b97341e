"""Tests of the end-to-end benchmark harness (percentiles, span self times,
compare verdicts) and a reduced-size smoke call of every workload."""

import json
import time

import pytest

from . import child, harness, tracing
from .__main__ import main
from .compare import verdict


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert harness.percentile(samples, 95) == 190.0
    assert harness.percentile(samples[:20], 50) == 10.0
    with pytest.raises(ValueError):
        harness.percentile(samples[:199], 95)
    with pytest.raises(ValueError):
        harness.percentile(samples[:19], 50)


def test_self_time_subtracts_nested_children():
    # handle [0, 10] > map_tasks [1, 6] > two folds [2, 3] and [4, 5];
    # a third fold [7, 8] sits directly under handle.
    spans = [(2, 1, "core.completion.fold", 2.0, 3.0),
             (3, 1, "core.completion.fold", 4.0, 5.0),
             (1, 0, "mapping.map_tasks", 1.0, 6.0),
             (4, 0, "core.completion.fold", 7.0, 8.0),
             (0, -1, "sim.handle", 0.0, 10.0)]
    agg = tracing.self_times(spans)
    assert agg["sim.handle"] == (1, 10.0, 4.0)
    assert agg["mapping.map_tasks"] == (1, 5.0, 3.0)
    assert agg["core.completion.fold"] == (3, 3.0, 3.0)


class _Folder:
    def fold(self, x):
        return x + 1


class _Mapper:
    def __init__(self, folder):
        self.folder = folder

    def map_tasks(self, tasks):
        return [self.folder.fold(t) for t in tasks]


def test_patched_calls_nest_and_unpatch():
    tracer = tracing.Tracer("test")
    original = _Folder.fold
    tracer.patch(_Folder, "fold", "core.completion.fold")
    mapper = _Mapper(_Folder())
    tracer.patch(mapper, "map_tasks", "mapping.map_tasks")
    handle = tracer.wrap("sim.run", lambda: mapper.map_tasks([1, 2]))
    assert handle() == [2, 3]
    by_name = {}
    for sid, parent, name, _, _ in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (run_id, run_parent), = by_name["sim.run"]
    (map_id, map_parent), = by_name["mapping.map_tasks"]
    assert run_parent == -1 and map_parent == run_id
    assert [parent for _, parent in by_name["core.completion.fold"]] == [
        map_id, map_id]
    run_s, self_sum = tracing.run_coverage(tracing.self_times(tracer.spans))
    assert self_sum == pytest.approx(run_s, rel=1e-9)
    tracer.unpatch()
    assert _Folder.fold is original and "map_tasks" not in vars(mapper)


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]
    assert verdict(parent, parent, "higher", 0.08) == "unchanged"
    assert verdict(parent, [v * 1.2 for v in parent], "higher",
                   0.08) == "improved"
    assert verdict(parent, [v * 0.8 for v in parent], "higher",
                   0.08) == "regressed"
    assert verdict(parent, [v * 1.2 for v in parent], "lower",
                   0.08) == "regressed"
    # Within the bound but not a win on nine pairs in ten: unchanged.
    assert verdict(parent, [v * 0.97 for v in parent], "higher",
                   0.08) == "unchanged"
    noisy = [60.0, 140.0] * 5
    assert verdict(noisy, noisy, "higher", 0.08) == "unresolved"
    assert verdict(noisy, [v * 3 for v in noisy], "higher",
                   0.08) == "improved"
    assert verdict(parent[:9], parent[:9], "higher", 0.08) == "unresolved"


def test_compare_wide_spread_is_unresolved_without_a_clean_sweep():
    # Parent IQR is 20% of its median, wider than the 8% bound.  The change
    # wins 9 of 10 pairs by a gap wider than that IQR, but one change run
    # (70) is worse than the parent's best run (120).
    parent = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0,
              100.0]
    change = [70.0] + [1.6 * v for v in parent[1:]]
    assert verdict(parent, change, "higher", 0.08) == "unresolved"
    # The same gain with every change run above every parent run counts.
    assert verdict(parent, [1.6 * v for v in parent], "higher",
                   0.08) == "improved"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_prints_the_result_line_when_a_child_fails(trace, monkeypatch,
                                                        capsys):
    def fail(workload, seed, where, *flags):
        raise harness.UnitFailed(f"{workload}: child exited 1: forced")

    monkeypatch.setattr(harness, "spawn", fail)
    code = main(["bench", "--workload", "batch-drop", "--seed", "42",
                 "--seconds", "5", "--trace", trace])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert json.loads(out[-1]) == {"correct": False, "attempted": 1,
                                   "failed": 1, "metrics": {}}


SMOKE = [("batch-drop", {"scale": 0.005}),
         ("batch-map", {"scale": 0.005}),
         ("batch-churn", {"scale": 0.005}),
         ("stream-steady", {"ticks": 200, "tick": 10}),
         ("plan-sweep", {"scale": 0.002, "trials": 1})]


@pytest.mark.parametrize("workload,sizes", SMOKE)
def test_workload_smoke_emits_every_metric(workload, sizes, tmp_path):
    spec = harness.load_spec()
    spawned = time.perf_counter()
    plain = child.run_unit(workload, 3, str(tmp_path), sizes=sizes)
    plain = harness.finish_unit(plain, spawned, time.perf_counter())
    traced = child.run_unit(workload, 3, str(tmp_path), traced=True,
                            sizes=sizes)
    assert plain["problems"] == [] and traced["problems"] == []
    assert traced["digest"] == plain["digest"]
    metrics = harness.end_to_end([plain], [plain["setup_s"]])
    run = {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics,
           "layers": harness.per_layer(metrics, traced)}
    for is_traced, key in ((False, "end_to_end"), (True, "per_layer")):
        line = harness.result_line(run, spec, is_traced)
        assert [(name, m["unit"]) for name, m in line["metrics"].items()] == [
            (m["name"], m["unit"]) for m in spec[key]]
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())
    layers = run["layers"]
    if workload == "batch-map":
        assert layers["core.dropping.calls"] == 0
    if workload == "batch-churn":
        assert layers["sim.faults.crashes"] > 0
        assert layers["platform.transfers"] > 0
    if workload.startswith("batch"):
        assert layers["core.completion.fold_calls"] > 0
        assert layers["metrics.collect_s"] > 0
