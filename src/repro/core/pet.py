"""Probabilistic Execution Time (PET) matrix.

The PET matrix (Salehi et al., JPDC 2016; Section III of the reproduced
paper) stores, for every *task type* and every *machine type*, the PMF of the
execution time of that task type on that machine type.  The matrix is the
only information the mapper and the dropping mechanism have about execution
times: the actual (sampled) execution times used by the simulator are drawn
from the very same PMFs, which matches the paper's simulation methodology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

import numpy as np

from .pmf import PMF

__all__ = ["PETMatrix", "PETValidationError"]


class PETValidationError(ValueError):
    """Raised when a PET matrix is structurally invalid."""


@dataclass(frozen=True)
class PETMatrix:
    """Execution-time PMFs indexed by ``(task_type_id, machine_type_id)``.

    Parameters
    ----------
    task_type_names:
        Names of the task types; the index in this list is the task type id.
    machine_type_names:
        Names of the machine types; the index is the machine type id.
    entries:
        Mapping from ``(task_type_id, machine_type_id)`` to the execution
        time :class:`~repro.core.pmf.PMF` of that pair.  The mapping must be
        complete (every pair present) and every PMF must be a proper
        distribution with strictly positive support.
    """

    task_type_names: Tuple[str, ...]
    machine_type_names: Tuple[str, ...]
    entries: Mapping[Tuple[int, int], PMF] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "task_type_names", tuple(self.task_type_names))
        object.__setattr__(self, "machine_type_names", tuple(self.machine_type_names))
        object.__setattr__(self, "entries", dict(self.entries))
        self._validate()
        means = np.empty((self.num_task_types, self.num_machine_types), dtype=np.float64)
        for (i, j), pmf in self.entries.items():
            means[i, j] = pmf.mean()
        means.setflags(write=False)
        object.__setattr__(self, "_means", means)

    def _validate(self) -> None:
        if not self.task_type_names:
            raise PETValidationError("PET matrix needs at least one task type")
        if not self.machine_type_names:
            raise PETValidationError("PET matrix needs at least one machine type")
        expected = {(i, j)
                    for i in range(self.num_task_types)
                    for j in range(self.num_machine_types)}
        got = set(self.entries.keys())
        missing = expected - got
        extra = got - expected
        if missing:
            raise PETValidationError(f"PET matrix is missing entries: {sorted(missing)[:5]}")
        if extra:
            raise PETValidationError(f"PET matrix has unexpected entries: {sorted(extra)[:5]}")
        for key, pmf in self.entries.items():
            if not isinstance(pmf, PMF):
                raise PETValidationError(f"entry {key} is not a PMF")
            if pmf.is_empty:
                raise PETValidationError(f"entry {key} is an empty PMF")
            if abs(pmf.total_mass - 1.0) > 1e-6:
                raise PETValidationError(
                    f"entry {key} is not normalised (mass={pmf.total_mass})")
            if pmf.min_time <= 0:
                raise PETValidationError(
                    f"entry {key} has non-positive execution times")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_task_types(self) -> int:
        """Number of task types (rows)."""
        return len(self.task_type_names)

    @property
    def num_machine_types(self) -> int:
        """Number of machine types (columns)."""
        return len(self.machine_type_names)

    @property
    def shape(self) -> Tuple[int, int]:
        """``(num_task_types, num_machine_types)``."""
        return self.num_task_types, self.num_machine_types

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def pmf(self, task_type: int, machine_type: int) -> PMF:
        """Execution-time PMF of ``task_type`` on ``machine_type``."""
        try:
            return self.entries[(int(task_type), int(machine_type))]
        except KeyError as exc:  # pragma: no cover - guarded by validation
            raise KeyError(f"no PET entry for task type {task_type} "
                           f"on machine type {machine_type}") from exc

    def mean_execution(self, task_type: int, machine_type: int) -> float:
        """Expected execution time of ``task_type`` on ``machine_type``."""
        return float(self._means[int(task_type), int(machine_type)])

    def mean_matrix(self) -> np.ndarray:
        """Matrix of expected execution times (task types × machine types)."""
        return self._means.copy()

    def task_type_mean(self, task_type: int) -> float:
        """Mean execution time of a task type averaged over machine types.

        This is the ``avg_i`` term of the paper's deadline formula
        ``δ_i = arr_i + avg_i + γ · avg_all``.
        """
        return float(self._means[int(task_type), :].mean())

    def overall_mean(self) -> float:
        """Mean execution time over all task and machine types (``avg_all``)."""
        return float(self._means.mean())

    # ------------------------------------------------------------------
    # Heterogeneity diagnostics
    # ------------------------------------------------------------------
    def is_inconsistently_heterogeneous(self) -> bool:
        """True when the machine ranking differs across task types.

        An inconsistent HC system is one where machine A can be faster than
        machine B for one task type but slower for another (Section I of the
        paper).  The check compares the machine ordering induced by the mean
        execution time of each task type.
        """
        if self.num_machine_types < 2 or self.num_task_types < 2:
            return False
        orders = [tuple(np.argsort(self._means[i, :])) for i in range(self.num_task_types)]
        return len(set(orders)) > 1

    def describe(self) -> str:
        """Human-readable summary of the matrix (means in time units)."""
        lines: List[str] = []
        header = "task type".ljust(18) + "".join(
            name[:10].rjust(12) for name in self.machine_type_names)
        lines.append(header)
        for i, tname in enumerate(self.task_type_names):
            row = tname[:16].ljust(18) + "".join(
                f"{self._means[i, j]:12.1f}" for j in range(self.num_machine_types))
            lines.append(row)
        return "\n".join(lines)
