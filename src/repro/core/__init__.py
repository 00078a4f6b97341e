"""Probabilistic core of the task-dropping mechanism.

This package contains the paper's mathematical machinery: discrete PMFs, the
PET matrix, completion-time propagation along machine queues, instantaneous
robustness, and the family of dropping policies built on top of them.
"""

from .completion import (QueueEntry, chance_of_success, completion_pmf,
                         queue_completion_pmfs, queue_completion_with_drops)
from .pet import PETMatrix, PETValidationError
from .pmf import PMF
from .robustness import (instantaneous_robustness,
                         instantaneous_robustness_with_drops,
                         queue_success_probabilities,
                         queue_success_probabilities_with_drops)

__all__ = [
    "PMF",
    "PETMatrix",
    "PETValidationError",
    "QueueEntry",
    "completion_pmf",
    "chance_of_success",
    "queue_completion_pmfs",
    "queue_completion_with_drops",
    "instantaneous_robustness",
    "instantaneous_robustness_with_drops",
    "queue_success_probabilities",
    "queue_success_probabilities_with_drops",
]
