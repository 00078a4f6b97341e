"""End-to-end benchmark of the simulator: five workloads, each run in fresh
child processes, timed from process start to result, plus a traced run that
splits the time by layer.

Run ``python -m benchmarks.e2e --help``; see ``README.md`` in this directory.
This package imports nothing from ``repro`` at import time: the parent
process never loads the simulator, only its child processes do.
"""
