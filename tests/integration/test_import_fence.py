"""Importing an entry point never loads scipy.

scipy is needed only for the Student-t quantile of a multi-trial confidence
interval, and even then only ``scipy.special`` loads.  The check runs in a
fresh interpreter so that modules imported by other tests do not leak in.
"""

import json
import os
import subprocess
import sys

ENTRY_POINTS = ("repro", "repro.experiments.cli", "repro.experiments.runner",
                "repro.api.plan", "repro.stream.service")


def test_entry_points_do_not_import_scipy():
    code = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "after_import = sorted(m for m in sys.modules\n"
        "                      if m == 'scipy' or m.startswith('scipy.'))\n"
        "from repro.metrics.stats import mean_confidence_interval\n"
        "mean_confidence_interval([1.0, 2.0, 4.0])\n"
        "print(json.dumps({'after_import': after_import,\n"
        "                  'stats_after_ci': 'scipy.stats' in sys.modules}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                    env.get("PYTHONPATH"))
        if p)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded["after_import"] == []
    assert loaded["stats_after_ci"] is False
