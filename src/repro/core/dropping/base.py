"""Interfaces shared by all task-dropping policies.

A dropping policy inspects the scheduler's probabilistic view of one machine
queue at a mapping event and decides which *pending* (not yet running) tasks
to drop proactively.  Policies never see the actual sampled execution times;
they only see the machine's base completion PMF and the PET-derived execution
PMFs of the queued tasks, exactly like the mechanism described in Section IV
of the paper.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..completion import QueueEntry
from ..pmf import PMF

__all__ = ["MachineQueueView", "DropDecision", "DroppingPolicy"]


@dataclass(frozen=True)
class MachineQueueView:
    """Probabilistic snapshot of one machine queue at a mapping event.

    Attributes
    ----------
    machine_id:
        Identifier of the machine (for bookkeeping / tracing only).
    now:
        Current simulation time.
    base_pmf:
        Completion-time PMF of whatever precedes the first pending task: the
        running task's conditioned completion PMF or a delta at ``now`` when
        the machine is idle.
    entries:
        Pending tasks in queue order (head of queue first).
    pressure:
        Optional system-load signal in ``[0, 1]`` (ratio of unmapped work to
        queue capacity); used only by adaptive threshold policies.
    chain:
        Optional no-drop Eq. 1 chain of the queue: ``chain[n]`` is the
        completion PMF of ``entries[n]`` behind ``base_pmf`` and every
        entry ahead of it.  The simulator passes its per-machine tail
        chain here, so a policy that reads it folds no chain of its own;
        ``None`` (tests, ablations, the naive path) means "fold it
        yourself".  Policies must not mutate it.
    """

    machine_id: int
    now: int
    base_pmf: PMF
    entries: Sequence[QueueEntry] = field(default_factory=tuple)
    pressure: float = 0.0
    chain: Optional[Sequence[PMF]] = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.chain is not None and len(self.chain) != len(self.entries):
            raise ValueError(f"chain has {len(self.chain)} PMFs for "
                             f"{len(self.entries)} queue entries")

    @property
    def queue_length(self) -> int:
        """Number of pending tasks visible to the dropping policy."""
        return len(self.entries)


@dataclass(frozen=True)
class DropDecision:
    """Outcome of evaluating one machine queue.

    Attributes
    ----------
    drop_indices:
        Positions (into ``MachineQueueView.entries``) to drop proactively,
        in ascending order.
    robustness_before:
        Instantaneous robustness of the queue if nothing is dropped, when the
        policy computed it (``nan`` otherwise).
    robustness_after:
        Instantaneous robustness of the queue after the selected drops, when
        the policy computed it (``nan`` otherwise).
    chain:
        Optional Eq. 1 chain of the surviving tasks: ``chain[k]`` is the
        completion PMF of the ``k``-th task left after the drops, behind
        ``base_pmf`` and the survivors ahead of it.  The simulator's tail
        cache adopts it, so a policy that sets it promises exactly these
        folds.
    """

    drop_indices: Sequence[int] = ()
    robustness_before: float = float("nan")
    robustness_after: float = float("nan")
    chain: Optional[Sequence[PMF]] = field(default=None, compare=False,
                                           repr=False)

    def __post_init__(self):
        object.__setattr__(self, "drop_indices", tuple(sorted(int(i) for i in self.drop_indices)))

    @property
    def num_drops(self) -> int:
        """Number of tasks selected for proactive dropping."""
        return len(self.drop_indices)


class DroppingPolicy(abc.ABC):
    """Base class for proactive dropping policies.

    Subclasses implement :meth:`evaluate_queue`; the simulator calls it once
    per machine queue per mapping event, *after* reactive dropping of tasks
    that already missed their deadlines.
    """

    #: Human-readable policy name used in experiment reports.
    name: str = "base"

    #: When True the simulator may reuse a previous :class:`DropDecision`
    #: for a queue whose view is unchanged (same base PMF, same entries and
    #: -- if :attr:`uses_pressure` -- same pressure).  The reuse key does
    #: NOT include ``view.now``, so only policies that are pure functions
    #: of (base_pmf, entries, pressure) may opt in.  Every built-in policy
    #: qualifies and does; the default stays False so stateful or
    #: time-dependent custom policies are never silently memoised.
    memoizable: bool = False

    #: True when the decision depends on ``view.pressure``; the simulator
    #: then includes the pressure in its memoisation key.  Conservatively
    #: True by default; pressure-blind policies override it.
    uses_pressure: bool = True

    @abc.abstractmethod
    def evaluate_queue(self, view: MachineQueueView) -> DropDecision:
        """Decide which pending tasks of ``view`` to drop proactively."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
