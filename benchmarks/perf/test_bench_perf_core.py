"""Smoke test of the ``repro bench`` crossover measurement (tiny scale).

Proves that the loop-vs-vector small-plane measurement runs end to end,
that both backends agree on the metrics at every plane width (the suite
raises otherwise), and that the payload schema is stable.  End-to-end
performance is measured by ``benchmarks/e2e``.
"""

import json

from repro.experiments.bench import (format_crossover_table,
                                     run_crossover_benchmark,
                                     write_bench_json)
from repro.mapping.kernel import SMALL_PLANE_TASKS


def test_crossover_benchmark_smoke(tmp_path):
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

    path = tmp_path / "crossover.json"
    write_bench_json(payload, str(path))
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == payload

