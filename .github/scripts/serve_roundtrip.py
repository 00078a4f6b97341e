"""Serve, snapshot, restore, compare: the service round-trip smoke check.

Runs ``repro serve`` three times with the serve flags given after ``--``:

1. to ``--horizon``, snapshotting every ``--snapshot-every`` units (the
   last snapshot lands at the horizon);
2. restored from that snapshot and run on to ``--final``;
3. uninterrupted, straight to ``--final``;

and asserts that runs 2 and 3 report identical metrics and timelines.
With ``--restore PATH`` run 1 is skipped and run 2 restores that existing
snapshot (a committed one written by an older build, say) instead.
Perf counters are excluded: a restored service starts with cold caches by
design.  Optional checks: window counts of runs 1 and 3, metrics that must
be positive in run 3 (``--positive churn.crashes``), and warm-up trimming
(``--warmup T`` is passed to runs 2 and 3, whose windows must then all
start at or after ``T``).  Every payload, and the snapshot run 1 writes,
go to ``--out``.  Run from the repository root::

    PYTHONPATH=src python .github/scripts/serve_roundtrip.py \\
        --out stream-results --horizon 4000 --snapshot-every 2000 \\
        --final 8000 --first-windows 8 --final-windows 16 \\
        -- --traffic burst --seed 7

    PYTHONPATH=src python .github/scripts/serve_roundtrip.py \\
        --out legacy-results \\
        --restore tests/stream/golden/legacy/plain_t3000.json \\
        --final 4000 -- --seed 3
"""

import argparse
import json
import os
import subprocess
import sys


def serve(out_dir, name, args):
    """Run ``repro serve ... --json``, save its payload and return it."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "serve", *args, "--json"],
        check=True, stdout=subprocess.PIPE, text=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as handle:
        handle.write(result.stdout)
    return json.loads(result.stdout)


def strip_perf(payload):
    payload["metrics"].pop("perf", None)
    for window in payload["timeline"]["windows"]:
        window.pop("perf", None)
    return payload


def lookup(payload, dotted):
    for key in dotted.split("."):
        payload = payload[key]
    return payload


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--snapshot-every", type=int)
    parser.add_argument("--restore", metavar="PATH")
    parser.add_argument("--final", type=int, required=True)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--first-windows", type=int, default=None)
    parser.add_argument("--final-windows", type=int, default=None)
    parser.add_argument("--positive", action="append", default=[],
                        metavar="METRIC")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    if opts.restore is None and None in (opts.horizon, opts.snapshot_every):
        parser.error("--horizon and --snapshot-every are required "
                     "without --restore")
    flags = [a for a in opts.serve_args if a != "--"]
    os.makedirs(opts.out, exist_ok=True)
    snapshot = opts.restore or os.path.join(opts.out, "svc.json")
    warmup = ["--warmup", str(opts.warmup)] if opts.warmup else []

    if opts.restore is None:
        first = serve(opts.out, "first", [
            *flags, "--horizon", str(opts.horizon),
            "--snapshot-every", str(opts.snapshot_every),
            "--snapshot", snapshot])
        assert first["horizon"] == opts.horizon, first["horizon"]
        if opts.first_windows is not None:
            assert len(first["timeline"]["windows"]) == opts.first_windows, \
                len(first["timeline"]["windows"])
    resumed = strip_perf(serve(opts.out, "resumed", [
        "--restore", snapshot, "--horizon", str(opts.final), *warmup]))
    straight = strip_perf(serve(opts.out, "straight", [
        *flags, "--horizon", str(opts.final), *warmup]))

    windows = straight["timeline"]["windows"]
    assert resumed == straight, "restored service diverged"
    if opts.final_windows is not None:
        assert len(windows) == opts.final_windows, len(windows)
    for metric in opts.positive:
        value = lookup(straight["metrics"], metric)
        assert value > 0, f"{metric} = {value}"
    if opts.warmup:
        assert all(w["start"] >= opts.warmup for w in windows), windows[0]
    checked = ", ".join(f"{m}={lookup(straight['metrics'], m)}"
                        for m in opts.positive)
    print(f"snapshot/restore is bit-identical over {opts.final} time units "
          f"({straight['metrics']['robustness']['total_tasks']} tasks, "
          f"{len(windows)} windows{', ' + checked if checked else ''})")


if __name__ == "__main__":
    main()
