"""Mapping heuristics for heterogeneous and homogeneous systems."""

from .base import (Assignment, MachineState, MappingContext, MappingHeuristic,
                   OrderedMappingHeuristic, ScoreSpec, TaskView,
                   TwoPhaseMappingHeuristic)
from .kernel import SCORE_COLUMNS, ScoreColumn, register_score_column
from .edf import EDF
from .fcfs import FCFS
from .minmin import MinMin
from .msd import MSD
from .pam import PAM
from .sjf import SJF

def make_heuristic(name: str, **params) -> MappingHeuristic:
    """Instantiate a mapping heuristic from its registry name."""
    from ..api.registries import MAPPERS
    return MAPPERS.create(name, **params)


__all__ = [
    "Assignment",
    "MachineState",
    "MappingContext",
    "MappingHeuristic",
    "TwoPhaseMappingHeuristic",
    "OrderedMappingHeuristic",
    "ScoreSpec",
    "ScoreColumn",
    "SCORE_COLUMNS",
    "register_score_column",
    "TaskView",
    "MinMin",
    "MSD",
    "PAM",
    "FCFS",
    "SJF",
    "EDF",
    "make_heuristic",
]
