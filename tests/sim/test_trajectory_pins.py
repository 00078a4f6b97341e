"""Byte pins of whole-trial trajectories on a small mapping grid.

Each case runs one ``spec`` 40k trial and hashes its serialised metrics
(:func:`repro.metrics.collector.trial_metrics_to_dict`, minus the ``perf``
work counters, which are allowed to move).  A change to any cache, memo or
scoring path in front of the Eq. 1 fold must leave every digest in place:
the grid crosses both score kinds (PAM ranks by chance of success, MM by
expected completion), a proactive dropper with the reactive baseline, a
narrow and a wide batch window, and both numerics profiles.  ``gamma=5``
relaxes the deadlines so the batch queue backs up and the window size
changes the trajectory.

Under ``numerics="fast"`` MM's ranking coincides with exact, so its fast
digests equal the exact ones; PAM's do not.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import TrialSpec, run_trial
from repro.metrics.collector import trial_metrics_to_dict

SCALE = 0.006  # ~240 tasks per trial
SEED = 7

DIGESTS = {
    ("PAM", "react", 8, "exact"):
        "f2c36b67e61e4478073432adb233f6a190cffaa8b452ef4a5ac35b5c91bf7072",
    ("PAM", "react", 8, "fast"):
        "58525343fa41d7d5b3ddffcb3f5b64604e1d4f6e959fb3583dca39ac621a5865",
    ("PAM", "react", 64, "exact"):
        "cd6e61fc0f8cafe5f01b352f6559f367c772cddec56813b9820316027da66e8e",
    ("PAM", "react", 64, "fast"):
        "1111cadcf0dd5023be33c9072544791123bd36bab9448298509630a76846dd39",
    ("PAM", "heuristic", 8, "exact"):
        "ef40e3a1b007866bc2b92a5a602ca47d4c0e0891b1784ec8d15bf0f7db39d381",
    ("PAM", "heuristic", 8, "fast"):
        "858ad04c02f935acdffc54af7ef2bb87a8a5ac23d48f5887f45268c76d045787",
    ("PAM", "heuristic", 64, "exact"):
        "6f7b832e488500c165430d5a46008b4cfe8a7aad8ae3d9e1386ca3b4146929ed",
    ("PAM", "heuristic", 64, "fast"):
        "6fcf84733eb2a000a86c0cccd0ff0ee9449487e22c1848db58569a65b8977156",
    ("MM", "react", 8, "exact"):
        "97181d254130d47fc113bf28ab7f61737d746d06959377784049d18892931bab",
    ("MM", "react", 8, "fast"):
        "97181d254130d47fc113bf28ab7f61737d746d06959377784049d18892931bab",
    ("MM", "react", 64, "exact"):
        "d6dd10647b99e851cca67a569f97070480be516c710faab1010c5a3cb21df705",
    ("MM", "react", 64, "fast"):
        "d6dd10647b99e851cca67a569f97070480be516c710faab1010c5a3cb21df705",
    ("MM", "heuristic", 8, "exact"):
        "e0f4728b0dc91f358760e8572d646894e77cae05e482643300ed65e88af20832",
    ("MM", "heuristic", 8, "fast"):
        "e0f4728b0dc91f358760e8572d646894e77cae05e482643300ed65e88af20832",
    ("MM", "heuristic", 64, "exact"):
        "ed2f8638b145f1b8026c85e55e703b42e08cb967dd81cf9cf96a6b9d8c8b354e",
    ("MM", "heuristic", 64, "fast"):
        "ed2f8638b145f1b8026c85e55e703b42e08cb967dd81cf9cf96a6b9d8c8b354e",
}


def trajectory_digest(mapper: str, dropper: str, window: int,
                      numerics: str) -> str:
    spec = TrialSpec(scenario_name="spec", level="40k", scale=SCALE,
                     gamma=5.0, queue_capacity=6, seed=SEED,
                     mapper_name=mapper, dropper_name=dropper,
                     batch_window=window, numerics=numerics)
    payload = trial_metrics_to_dict(run_trial(spec))
    payload.pop("perf", None)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("mapper,dropper,window,numerics", sorted(DIGESTS))
def test_trajectory_digest(mapper, dropper, window, numerics):
    assert trajectory_digest(mapper, dropper, window, numerics) \
        == DIGESTS[mapper, dropper, window, numerics]
