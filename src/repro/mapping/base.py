"""Shared infrastructure for batch-mode mapping heuristics.

At every mapping event the simulator hands the mapping heuristic:

* a *window* of unmapped tasks from the batch queue (oldest first),
* one mutable :class:`MachineState` per machine, describing the free slots
  of its queue and the completion-time PMF of its current tail, and
* a :class:`MappingContext` giving access to the PET matrix and to cached
  completion-time computations.

The heuristic returns a list of :class:`Assignment` objects.  Two-phase
heuristics (MinMin, MSD, PAM) *declare* their scores as a :class:`ScoreSpec`
-- named score columns plus explicit tie-break columns -- on top of the
shared :class:`TwoPhaseMappingHeuristic` skeleton; the declared plane is
executed by one of the scoring backends in :mod:`repro.mapping.kernel`
(the reference per-pair ``loop`` or the batched NumPy ``vector`` backend,
selected by :attr:`MappingContext.scoring`).  Simpler ordering-based
heuristics (FCFS, SJF, EDF) subclass :class:`OrderedMappingHeuristic`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.completion import (ChainFolder, batched_append_scores,
                               completion_pmf)
from ..core.pet import PETMatrix
from ..core.pmf import PMF

if TYPE_CHECKING:  # pragma: no cover - typing-only import (avoids a cycle)
    from ..platform.topology import EffectiveExecution

__all__ = [
    "TaskView",
    "MachineState",
    "Assignment",
    "ScoreSpec",
    "MappingContext",
    "MappingHeuristic",
    "TwoPhaseMappingHeuristic",
    "OrderedMappingHeuristic",
]

#: Scoring backends accepted by :class:`MappingContext` and
#: :class:`~repro.sim.system.SystemConfig`.
SCORING_BACKENDS = ("loop", "vector")


@dataclass(frozen=True)
class ScoreSpec:
    """Declarative description of a two-phase heuristic's score plane.

    Instead of overriding imperative per-pair score callables, a two-phase
    heuristic names the *columns* of its (task x machine) score plane; a
    scoring backend (:mod:`repro.mapping.kernel`) evaluates the plane and
    performs the lexicographic argmin.  Column names resolve against
    :data:`repro.mapping.kernel.SCORE_COLUMNS` (extensible via
    :func:`repro.mapping.kernel.register_score_column`).

    Attributes
    ----------
    phase1:
        Columns minimised (lexicographically) when each task picks its
        candidate machine.
    phase2:
        Columns minimised when resolving contention among the pairs
        targeting one machine (or globally, see ``assign_per_machine``).
    phase1_tiebreak / phase2_tiebreak:
        Explicit final tie-break columns.  The defaults reproduce the
        historical loop order exactly: phase 1 breaks ties by the lowest
        machine id, phase 2 by the lowest task id.
    assign_per_machine:
        When True (MinMin/MSD) phase 2 commits one pair per machine per
        round; when False (PAM) only the single best pair in the system.
    """

    phase1: Tuple[str, ...]
    phase2: Tuple[str, ...]
    phase1_tiebreak: Tuple[str, ...] = ("machine_id",)
    phase2_tiebreak: Tuple[str, ...] = ("task_id",)
    assign_per_machine: bool = True

    def __post_init__(self):
        if not self.phase1 or not self.phase2:
            raise ValueError("ScoreSpec needs at least one column per phase")

    @property
    def columns(self) -> Tuple[str, ...]:
        """Every distinct plane column the spec references (no tie-breaks)."""
        seen: List[str] = []
        for name in self.phase1 + self.phase2:
            if name not in seen:
                seen.append(name)
        return tuple(seen)


@dataclass(frozen=True)
class TaskView:
    """Scheduler view of one unmapped task."""

    task_id: int
    type_id: int
    arrival: int
    deadline: int


class MachineState:
    """Mutable, per-mapping-event working copy of a machine queue's state.

    Parameters
    ----------
    machine_id / type_id:
        Identity of the machine and its PET column.
    free_slots:
        Remaining queue slots; decremented as the heuristic assigns tasks.
    tail_pmf:
        Completion-time PMF of the last element of the queue (the running
        task's conditioned PMF if the queue is otherwise empty, or a delta at
        the current time for an idle machine).  Updated after each
        provisional assignment so subsequent evaluations see the new tail.
        May be supplied lazily through ``tail_source``: heuristics only ever
        read the tails of machines they can assign to, and in an
        oversubscribed system most queues are full at most events, so the
        simulator defers the Eq. 1 chain fold until the first access.
    version:
        Monotonically increasing counter bumped on every tail update; used as
        a cache key by :class:`MappingContext`.
    tail_source:
        Zero-argument callable producing the tail PMF on first access when
        ``tail_pmf`` is not given eagerly.
    """

    __slots__ = ("machine_id", "type_id", "free_slots", "version", "_tail",
                 "_tail_source")

    def __init__(self, machine_id: int, type_id: int, free_slots: int,
                 tail_pmf: Optional[PMF] = None, version: int = 0,
                 tail_source: Optional[Callable[[], PMF]] = None):
        if tail_pmf is None and tail_source is None:
            raise ValueError("MachineState needs tail_pmf or tail_source")
        self.machine_id = machine_id
        self.type_id = type_id
        self.free_slots = free_slots
        self.version = version
        self._tail = tail_pmf
        self._tail_source = tail_source

    @property
    def tail_pmf(self) -> PMF:
        """Completion-time PMF of the queue tail (materialised on demand)."""
        if self._tail is None:
            self._tail = self._tail_source()
        return self._tail

    @tail_pmf.setter
    def tail_pmf(self, value: PMF) -> None:
        self._tail = value

    @property
    def tail_materialised(self) -> bool:
        """True once the tail PMF has been computed (or was given eagerly)."""
        return self._tail is not None

    @property
    def has_free_slot(self) -> bool:
        """True when at least one more task can be provisionally assigned."""
        return self.free_slots > 0

    def commit(self, new_tail: PMF) -> None:
        """Record a provisional assignment: consume a slot, move the tail."""
        if self.free_slots <= 0:
            raise RuntimeError(f"machine {self.machine_id} has no free slot")
        self.free_slots -= 1
        self._tail = new_tail
        self.version += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tail = self._tail if self._tail is not None else "<lazy>"
        return (f"MachineState(machine_id={self.machine_id}, "
                f"type_id={self.type_id}, free_slots={self.free_slots}, "
                f"tail_pmf={tail}, version={self.version})")


@dataclass(frozen=True)
class Assignment:
    """A ``task -> machine`` decision produced by a mapping heuristic."""

    task_id: int
    machine_id: int


class MappingContext:
    """Completion-time calculator shared by all heuristics.

    Completion PMFs appended to a machine tail are memoised per
    ``(machine, tail-version, task)`` triple for the length of one mapping
    event, because two-phase heuristics re-evaluate the same pairs over
    several rounds, and the commit path re-asks for the pair the score
    plane just folded.

    ``folder`` optionally routes fold arithmetic through the run's
    :class:`~repro.core.completion.ChainFolder`, whose identity-keyed memos
    answer repeated folds, chances and means within the mapping event --
    across machines of the same type, and for the tail extension that
    follows a commit -- without NumPy.  The memos are emptied when the
    next event starts.  Results are bit-identical either way -- unless
    the folder runs the
    ``numerics="fast"`` profile, in which case *scores* (and only scores)
    come from its closed-form chance and mean within the documented
    tolerance, while committed completion PMFs stay exact.

    ``small_plane_tasks`` overrides the vector backend's small-plane
    dispatch threshold (``None`` keeps the measured platform default,
    :data:`repro.mapping.kernel.SMALL_PLANE_TASKS`).
    """

    def __init__(self, pet: PETMatrix, now: int, *,
                 folder: Optional[ChainFolder] = None,
                 scoring: str = "vector",
                 small_plane_tasks: Optional[int] = None,
                 exec_view: Optional["EffectiveExecution"] = None):
        self.pet = pet
        #: Optional transfer-composed execution views
        #: (:class:`repro.platform.topology.EffectiveExecution`).  When set,
        #: :meth:`exec_pmf` and :meth:`mean_execution` serve the effective
        #: (transfer-shifted) per-machine entries, so every heuristic --
        #: loop or vector backend, exact or fast numerics -- prices data
        #: locality automatically.  ``None`` keeps the raw PET behaviour.
        self._exec_view = exec_view
        self.now = int(now)
        #: Vector-dispatch threshold override (``None`` = kernel default).
        self.small_plane_tasks = (None if small_plane_tasks is None
                                  else int(small_plane_tasks))
        self._cache: Dict[Tuple[int, int, int], PMF] = {}
        self._folder = folder
        if scoring not in SCORING_BACKENDS:
            raise ValueError(f"unknown scoring backend {scoring!r}; "
                             f"expected one of {SCORING_BACKENDS}")
        #: Backend declarative heuristics run their score plane on.
        self.scoring = scoring
        #: Work counters of the scoring backends: per-pair score
        #: evaluations and selection rounds of this mapping event.  The
        #: simulator folds them into :class:`~repro.sim.perf.PerfStats`
        #: (``plane_evals`` / ``plane_rounds``) after the event.
        self.plane_evals = 0
        self.plane_rounds = 0
        #: True when score queries run the folder's fast-numerics backends.
        self._fast = folder is not None and folder.numerics == "fast"

    # ------------------------------------------------------------------
    def exec_pmf(self, task: TaskView, machine: MachineState) -> PMF:
        """Execution-time PMF of ``task`` on ``machine``.

        A raw PET entry, or the transfer-composed effective entry when the
        run has a non-trivial topology; both are built once per run and
        handed out as the same objects, so every downstream memo keys on
        them unchanged.
        """
        if self._exec_view is not None:
            return self._exec_view.pmf(task.type_id, machine.machine_id)
        return self.pet.pmf(task.type_id, machine.type_id)

    def mean_execution(self, task: TaskView, machine: MachineState) -> float:
        """Expected execution time of ``task`` on ``machine``
        (transfer-inclusive when the run has a non-trivial topology)."""
        if self._exec_view is not None:
            return self._exec_view.mean(task.type_id, machine.machine_id)
        return self.pet.mean_execution(task.type_id, machine.type_id)

    def mean_execution_over_types(self, task: TaskView) -> float:
        """Expected execution time of the task type averaged over machine types."""
        return self.pet.task_type_mean(task.type_id)

    def completion_if_appended(self, machine: MachineState, task: TaskView) -> PMF:
        """Completion-time PMF of ``task`` appended at the tail of ``machine``."""
        key = (machine.machine_id, machine.version, task.task_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self._folder is not None:
            pmf = self._folder.fold(machine.tail_pmf,
                                    self.exec_pmf(task, machine), task.deadline)
        else:
            pmf = completion_pmf(machine.tail_pmf, self.exec_pmf(task, machine),
                                 task.deadline)
        self._cache[key] = pmf
        return pmf

    def expected_completion(self, machine: MachineState, task: TaskView) -> float:
        """Expected completion time of ``task`` appended to ``machine``.

        Under the ``fast`` numerics profile the value is the folder's
        closed-form moment algebra (no fold, no appended PMF), mirroring
        :meth:`chance_of_success`.
        """
        folder = self._folder
        if self._fast:
            return folder.append_mean(machine.tail_pmf,
                                      self.exec_pmf(task, machine),
                                      task.deadline)
        pmf = self.completion_if_appended(machine, task)
        return folder.mean(pmf) if folder is not None else pmf.mean()

    def chance_of_success(self, machine: MachineState, task: TaskView) -> float:
        """Probability that ``task`` appended to ``machine`` meets its deadline.

        Under the ``fast`` numerics profile the value is the folder's
        closed-form dot product (no fold, no appended PMF) -- this is how
        the *loop* backend benefits from the fast profile too.
        """
        folder = self._folder
        if self._fast:
            return folder.append_chance(machine.tail_pmf,
                                        self.exec_pmf(task, machine),
                                        task.deadline)
        pmf = self.completion_if_appended(machine, task)
        if folder is not None:
            return folder.chance(pmf, task.deadline)
        return pmf.mass_before(task.deadline)

    # ------------------------------------------------------------------
    def score_block(self, machine: MachineState, tasks: Sequence[TaskView],
                    want_mean: bool = True, want_chance: bool = False,
                    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Appended-completion scores of many tasks on one machine, batched.

        Evaluates one *column* of the (task x machine) score plane: every
        candidate appended to the machine's current tail, scored through the
        batched kernel (:func:`repro.core.completion.batched_append_scores`)
        instead of one scalar call per pair.  Every value is bit-identical
        to what :meth:`expected_completion` / :meth:`chance_of_success`
        return for the same pair, and the appended PMFs are recorded in the
        same caches, so a later :meth:`completion_if_appended` (the commit
        path) is a dictionary hit.

        Under the ``fast`` numerics profile the misses are served by the
        folder's closed-form chance and mean instead: no appended PMF is
        materialised, so none is recorded, and the commit path re-folds
        its one chosen pair exactly, so the simulated trajectory keeps
        exact arithmetic.

        Returns ``(means, chances)`` aligned with ``tasks``; entries not
        requested are ``None``.
        """
        n = len(tasks)
        self.plane_evals += n
        mid = machine.machine_id
        version = machine.version
        means = np.empty(n, dtype=np.float64) if want_mean else None
        chances = np.empty(n, dtype=np.float64) if want_chance else None
        pmfs: List[Optional[PMF]] = [None] * n
        miss: List[int] = []
        if version == 0:
            # An unmodified tail may already carry appends from this event.
            for i, task in enumerate(tasks):
                pmf = self._cache.get((mid, 0, task.task_id))
                if pmf is None:
                    miss.append(i)
                else:
                    pmfs[i] = pmf
        else:
            # A bumped version means the tail just moved: nothing can be
            # cached under the new key yet, so skip the probes entirely.
            miss = list(range(n))
        if miss:
            exec_pmfs = [self.exec_pmf(tasks[i], machine) for i in miss]
            deadlines = [tasks[i].deadline for i in miss]
            folded, f_means, f_chances = batched_append_scores(
                machine.tail_pmf, exec_pmfs, deadlines, self._folder,
                want_mean=want_mean, want_chance=want_chance)
            record = not self._fast
            for j, i in enumerate(miss):
                pmf = folded[j]
                pmfs[i] = pmf
                if record:
                    self._cache[(mid, version, tasks[i].task_id)] = pmf
                if means is not None:
                    means[i] = f_means[j]
                if chances is not None:
                    chances[i] = f_chances[j]
        if len(miss) != n:
            # Score the cache hits with the exact arithmetic of the scalar
            # path (PMF.mean / mass_before, folder-memoised chance).
            folder = self._folder
            missing = set(miss)
            for i, pmf in enumerate(pmfs):
                if i in missing:
                    continue
                if means is not None:
                    means[i] = (folder.mean(pmf) if folder is not None
                                else pmf.mean())
                if chances is not None:
                    deadline = int(tasks[i].deadline)
                    chances[i] = (folder.chance(pmf, deadline)
                                  if folder is not None
                                  else pmf.mass_before(deadline))
        return means, chances


class MappingHeuristic(abc.ABC):
    """Base class of all mapping heuristics."""

    #: Short name used in experiment reports ("MM", "MSD", "PAM", ...).
    name: str = "base"

    @abc.abstractmethod
    def map_tasks(self, tasks: Sequence[TaskView], machines: Sequence[MachineState],
                  ctx: MappingContext) -> List[Assignment]:
        """Assign tasks from the batch-queue window to free machine-queue slots.

        Implementations mutate the provided :class:`MachineState` working
        copies (via :meth:`MachineState.commit`) so that later decisions in
        the same mapping event account for earlier provisional assignments.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class TwoPhaseMappingHeuristic(MappingHeuristic):
    """Skeleton of the two-phase batch heuristics of Section V-B.

    Phase 1 picks, for every unmapped task, its preferred machine (smaller
    score is better).  Phase 2 resolves the contention: among the
    task-machine pairs targeting each machine (or globally, see
    :attr:`assign_per_machine`), the best pair is committed.  Rounds repeat
    until the queues are full or the window is exhausted.

    Subclasses *declare* their scores as a :class:`ScoreSpec`
    (:attr:`score_spec`); the plane is then executed by the scoring backend
    selected through :attr:`MappingContext.scoring` -- the per-pair
    ``loop`` reference or the batched NumPy ``vector`` engine
    (:mod:`repro.mapping.kernel`), which produce identical assignments.
    Legacy subclasses that instead override the imperative
    :meth:`phase1_score` / :meth:`phase2_score` callables keep working and
    are always executed on the loop backend.
    """

    #: Declarative description of the heuristic's score plane.  ``None``
    #: only for legacy subclasses that override the score callables.
    score_spec: ClassVar[Optional[ScoreSpec]] = None

    #: When True (MinMin/MSD behaviour), phase 2 commits one pair per machine
    #: per round.  When False (PAM behaviour), only the single best pair in
    #: the system is committed per round.  Kept in sync with
    #: :attr:`score_spec` automatically for declarative subclasses.
    assign_per_machine: bool = True

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        spec = cls.__dict__.get("score_spec")
        if spec is not None:
            cls.assign_per_machine = spec.assign_per_machine

    # ------------------------------------------------------------------
    def _spec(self) -> ScoreSpec:
        spec = self.score_spec
        if spec is None:
            raise TypeError(
                f"{type(self).__name__} declares no score_spec; either set "
                "one or override phase1_score/phase2_score")
        return spec

    def phase1_score(self, ctx: MappingContext, machine: MachineState,
                     task: TaskView) -> float:
        """Score used to pick each task's candidate machine (minimised).

        The default evaluates the declared :attr:`score_spec` phase-1
        columns; a single column yields a bare float, several a tuple.
        """
        from .kernel import evaluate_columns  # lazy: avoids an import cycle

        values = evaluate_columns(self._spec().phase1, ctx, machine, task)
        return values[0] if len(values) == 1 else values

    def phase2_score(self, ctx: MappingContext, machine: MachineState,
                     task: TaskView) -> Tuple[float, ...]:
        """Score used to pick among pairs targeting a machine (minimised)."""
        from .kernel import evaluate_columns

        return evaluate_columns(self._spec().phase2, ctx, machine, task)

    # ------------------------------------------------------------------
    def map_tasks(self, tasks: Sequence[TaskView], machines: Sequence[MachineState],
                  ctx: MappingContext) -> List[Assignment]:
        from .kernel import run_two_phase

        return run_two_phase(self, tasks, machines, ctx)


class OrderedMappingHeuristic(MappingHeuristic):
    """Skeleton of ordering-based heuristics (FCFS, SJF, EDF).

    Tasks are sorted by :meth:`task_priority` (ascending) and greedily
    assigned, in that order, to the free machine minimising the expected
    completion time.

    Like the two-phase heuristics, ordered heuristics *declare* their
    ordering: :attr:`priority_columns` names the task-kind score columns of
    the priority key (most significant first), from which a one-phase
    :class:`ScoreSpec` is derived -- phase 1 minimises
    ``expected_completion`` (each task's machine choice), phase 2 the
    priority columns with a single global winner per round, which is
    exactly the greedy take-the-most-urgent-task-next loop.  Under
    ``scoring="vector"`` the declared plane runs on the batched engine of
    :mod:`repro.mapping.kernel` (identical assignments bit-for-bit, pinned
    alongside the two-phase heuristics in the equivalence grid); the loop
    backend -- and any legacy subclass that overrides
    :meth:`task_priority` -- keeps the historical greedy reference.
    """

    #: Task-kind score-column names of the priority key, most significant
    #: first (see :data:`repro.mapping.kernel.SCORE_COLUMNS`).  ``None``
    #: only for legacy subclasses that override :meth:`task_priority`.
    priority_columns: ClassVar[Optional[Tuple[str, ...]]] = None

    #: One-phase spec derived from :attr:`priority_columns` (``None`` for
    #: legacy subclasses); consumed by the vector dispatch below.
    score_spec: ClassVar[Optional[ScoreSpec]] = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        columns = cls.__dict__.get("priority_columns")
        if columns:
            cls.score_spec = ScoreSpec(
                phase1=("expected_completion",),
                phase2=tuple(columns),
                assign_per_machine=False)

    def __init__(self):
        # task_priority used to be @abstractmethod, failing broken
        # subclasses at instantiation; keep that contract for classes that
        # declare neither priority_columns nor an override instead of
        # surfacing a TypeError at the first mapping event of a run.
        if self.score_spec is None and not self._overrides_priority():
            raise TypeError(
                f"{type(self).__name__} must declare priority_columns or "
                "override task_priority")

    def task_priority(self, ctx: MappingContext, task: TaskView) -> Tuple[float, ...]:
        """Ordering key of a task; smaller values are mapped first.

        The default evaluates the declared :attr:`priority_columns`;
        legacy subclasses may override it instead (and are then always
        executed on the greedy reference loop).
        """
        columns = self.priority_columns
        if columns is None:
            raise TypeError(
                f"{type(self).__name__} declares no priority_columns; "
                "either set them or override task_priority")
        from .kernel import evaluate_columns  # lazy: avoids an import cycle

        return evaluate_columns(columns, ctx, None, task)

    def _overrides_priority(self) -> bool:
        return (type(self).task_priority
                is not OrderedMappingHeuristic.task_priority)

    def map_tasks(self, tasks: Sequence[TaskView], machines: Sequence[MachineState],
                  ctx: MappingContext) -> List[Assignment]:
        from .kernel import SMALL_PLANE_TASKS, run_ordered_plane

        spec = self.score_spec
        threshold = (ctx.small_plane_tasks if ctx.small_plane_tasks is not None
                     else SMALL_PLANE_TASKS)
        if (spec is not None and ctx.scoring == "vector"
                and len(tasks) >= threshold
                and not self._overrides_priority()):
            return run_ordered_plane(spec, tasks, machines, ctx)
        ordered = sorted(tasks, key=lambda t: (self.task_priority(ctx, t), t.task_id))
        assignments: List[Assignment] = []
        for task in ordered:
            free_machines = [m for m in machines if m.has_free_slot]
            if not free_machines:
                break
            machine = min(free_machines,
                          key=lambda m: (ctx.expected_completion(m, task), m.machine_id))
            machine.commit(ctx.completion_if_appended(machine, task))
            assignments.append(Assignment(task.task_id, machine.machine_id))
        return assignments
