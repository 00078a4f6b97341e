"""Deadline assignment.

The paper assigns every task an individually feasible hard deadline

    δ_i = arr_i + avg_i + γ · avg_all

where ``arr_i`` is the arrival time, ``avg_i`` is the mean execution time of
the task's type (over machine types), ``avg_all`` is the mean execution time
over all task and machine types, and ``γ`` is a slack coefficient controlling
how tight deadlines are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.pet import PETMatrix

__all__ = ["DeadlinePolicy", "PaperDeadlinePolicy", "check_gamma"]


def check_gamma(gamma: float) -> None:
    """Reject a slack coefficient ``γ`` that is negative or not finite."""
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma}")


class DeadlinePolicy:
    """Interface of deadline-assignment policies."""

    def deadline(self, arrival: int, task_type: int, pet: PETMatrix) -> int:
        """Absolute deadline of a task of ``task_type`` arriving at ``arrival``."""
        raise NotImplementedError  # pragma: no cover - interface


@dataclass(frozen=True)
class PaperDeadlinePolicy(DeadlinePolicy):
    """The paper's deadline formula ``δ = arr + avg_i + γ·avg_all``.

    Attributes
    ----------
    gamma:
        Task slack coefficient ``γ``; larger values produce looser deadlines.
    """

    gamma: float = 1.0

    def __post_init__(self):
        check_gamma(self.gamma)

    def deadline(self, arrival: int, task_type: int, pet: PETMatrix) -> int:
        """Deadline per the paper formula, rounded to an integer time unit."""
        avg_i = pet.task_type_mean(task_type)
        avg_all = pet.overall_mean()
        deadline = arrival + avg_i + self.gamma * avg_all
        # Deadlines must lie strictly after the arrival so every task is
        # individually feasible with at least one time unit of slack.
        return max(int(round(deadline)), int(arrival) + 1)
