"""Smoke test of the perf benchmark harness (tiny scale).

Runs the pinned ``repro bench`` suites at a fraction of the committed
``BENCH_core.json`` scale: fast enough for CI, while still proving that the
harness executes end-to-end, that the incremental path reproduces the naive
metrics exactly (including across the worker-process boundary of the sweep
suite), and that the payload schemas are stable.  Payloads are written to a
throwaway location; the committed ``benchmarks/perf/BENCH_core.json`` /
``BENCH_sweep.json`` are regenerated separately at the pinned scales (see
the module docstring of :mod:`repro.experiments.bench` -- ``benchmarks/perf``
is the single canonical home of committed benchmark payloads).
"""

import json

from repro.experiments.bench import (BENCH_CASES, compare_to_baseline,
                                     format_baseline_comparison,
                                     format_bench_table, format_sweep_table,
                                     run_perf_benchmark, run_sweep_benchmark,
                                     write_bench_json)


def test_perf_benchmark_smoke(tmp_path):
    payload = run_perf_benchmark(scale=0.01, trials=1, base_seed=42)

    assert payload["benchmark"] == "core"
    assert len(payload["scenarios"]) == len(BENCH_CASES)
    assert any(e["compare"] == "scoring" for e in payload["scenarios"])
    assert any(e["compare"] == "stream" for e in payload["scenarios"])
    assert any(e["compare"] == "numerics" for e in payload["scenarios"])
    assert any(e["compare"] == "topology" for e in payload["scenarios"])
    for entry in payload["scenarios"]:
        if entry["compare"] == "numerics":
            # Fast numerics is tolerance-bounded: a score tie within
            # tolerance may flip an assignment, so equality is recorded
            # rather than enforced (the documented divergence policy).
            assert entry["metrics_equal"] in (True, False)
        else:
            # run_perf_benchmark raises on divergence; the flag records it.
            assert entry["metrics_equal"] is True
        assert entry["naive_s"] > 0 and entry["incremental_s"] > 0
        assert entry["speedup"] > 0
        perf = entry["incremental_perf"]
        assert perf["pmf_folds"] > 0
        assert perf["tail_cache_hits"] + perf["tail_cache_extends"] > 0
        if entry["compare"] in ("incremental", "stream", "topology"):
            # The incremental path must fold less than the naive one.  The
            # stream case compares the same two sides, but driven through
            # the always-on streaming service instead of a batch trial; the
            # topology case drives them with an active tiered topology.
            assert perf["pmf_folds"] < entry["naive_perf"]["pmf_folds"]
        elif entry["compare"] == "numerics":
            # ``pmf_folds`` counts committed-chain folds only -- a function
            # of the simulated trajectory, which the fast profile keeps
            # exact -- so when the metrics agree the counts must too.
            if entry["metrics_equal"]:
                assert perf["pmf_folds"] == entry["naive_perf"]["pmf_folds"]
        else:
            # Scoring cases compare loop vs vector, both incremental: the
            # fold arithmetic is shared, only the plane bookkeeping
            # differs.  The backends count plane work differently, so
            # identical counts would mean the loop ran both sides.
            assert entry["compare"] == "scoring"
            assert perf["pmf_folds"] == entry["naive_perf"]["pmf_folds"]
            assert perf["plane_evals"] != entry["naive_perf"]["plane_evals"]
        # The fold-kernel counters ride along in the payload, and so do
        # the retired intern/scratch keys (always 0) for older readers.
        assert perf["fold_memo_hits"] > 0
        assert "interned" in perf and "intern_hits" in perf
        assert "scratch_reuses" in perf and "plane_rounds" in perf
    assert payload["min_speedup"] <= payload["geomean_speedup"] <= payload["max_speedup"]

    table = format_bench_table(payload)
    print()
    print(table)
    assert "geomean speedup" in table

    path = tmp_path / "BENCH_core.json"
    write_bench_json(payload, str(path))
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["scale"] == 0.01

    # Baseline comparison against the payload itself never regresses; a
    # doctored slow baseline is beaten outright.
    comparison = compare_to_baseline(payload, payload, max_regression=0.1,
                                     max_regression_case=0.25)
    assert not comparison["regressed"]
    assert not comparison["regressed_cases"]
    assert len(comparison["cases"]) == len(BENCH_CASES)
    assert "ok" in format_baseline_comparison(comparison)
    slow = dict(payload)
    slow["geomean_speedup"] = payload["geomean_speedup"] * 10.0
    assert compare_to_baseline(payload, slow, max_regression=0.1)["regressed"]

    # Per-case detection: doctor one baseline case to be 10x faster; the
    # geomean gate would miss it, the per-case gate must flag it by name.
    doctored = json.loads(json.dumps(payload))
    doctored["scenarios"][0]["speedup"] *= 10.0
    case_name = doctored["scenarios"][0]["name"]
    per_case = compare_to_baseline(payload, doctored, max_regression=0.9,
                                   max_regression_case=0.25)
    assert not per_case["geomean_regressed"]
    assert per_case["regressed"] and per_case["regressed_cases"] == [case_name]
    assert case_name in format_baseline_comparison(per_case)
    # Without the per-case threshold the doctored case passes unnoticed.
    lax = compare_to_baseline(payload, doctored, max_regression=0.9)
    assert not lax["regressed"] and lax["regressed_cases"] == []
    # Cases present on one side only are reported, never flagged.
    subset = json.loads(json.dumps(payload))
    subset["scenarios"] = subset["scenarios"][1:]
    partial = compare_to_baseline(subset, payload, max_regression=0.9,
                                  max_regression_case=0.25)
    assert partial["missing_cases"] == [case_name]
    assert not partial["regressed"]


def test_sweep_benchmark_smoke(tmp_path):
    payload = run_sweep_benchmark(scale=0.004, trials=2, n_jobs=2,
                                  base_seed=42)

    assert payload["benchmark"] == "sweep"
    assert payload["metrics_equal"] is True
    assert len(payload["cells"]) == 4
    for cell in payload["cells"]:
        assert cell["metrics_equal"] is True
        assert cell["perf"] is not None and cell["perf"]["pmf_folds"] > 0
    assert payload["cold_pool_s"] > 0 and payload["warm_pool_s"] > 0
    assert payload["throughput_trials_per_s"] > 0

    table = format_sweep_table(payload)
    print()
    print(table)
    assert "warm pool" in table

    path = tmp_path / "BENCH_sweep.json"
    write_bench_json(payload, str(path))
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["n_jobs"] == 2


def test_crossover_benchmark_smoke():
    from repro.experiments.bench import (format_crossover_table,
                                         run_crossover_benchmark)
    from repro.mapping.kernel import SMALL_PLANE_TASKS

    payload = run_crossover_benchmark(scale=0.004, trials=1, base_seed=42,
                                      max_tasks=2)
    assert payload["benchmark"] == "crossover"
    assert len(payload["widths"]) == 2
    for row in payload["widths"]:
        assert row["loop_s"] > 0 and row["vector_s"] > 0
        assert row["speedup"] > 0
        assert isinstance(row["vector_wins"], bool)
    # The measured threshold is the largest width the loop still wins --
    # between 0 (vector always wins) and max_tasks (loop always wins).
    assert 0 <= payload["measured_small_plane_tasks"] <= 2
    assert payload["pinned_default"] == SMALL_PLANE_TASKS

    table = format_crossover_table(payload)
    print()
    print(table)
    assert "measured small-plane threshold" in table
    assert "small_plane_tasks" in table
