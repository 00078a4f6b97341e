"""Score-plane execution engine of the two-phase mapping heuristics.

Two-phase heuristics *declare* their scores (:class:`~repro.mapping.base.ScoreSpec`);
this module *executes* the declaration.  Every mapping round reduces to a
lexicographic argmin over a (task x machine) score plane, and two backends
implement it:

* ``loop`` -- the reference per-pair implementation: Python ``min`` over
  score tuples, exactly the historical behaviour of
  ``TwoPhaseMappingHeuristic.map_tasks``.  Legacy subclasses that override
  the imperative ``phase1_score`` / ``phase2_score`` callables always run
  here.
* ``vector`` -- the batched engine: score columns are materialised as NumPy
  matrices (appended-completion columns through the batched kernel in
  :mod:`repro.core.completion`), only the columns of machines whose
  provisional tail moved are refilled between rounds, and selection is a
  vectorised lexicographic argmin whose explicit tie-break columns
  reproduce the loop backend's pick order bit-for-bit.

Both backends evaluate identical per-pair arithmetic (same folds, same
``mean``/``mass_before`` reductions), so they produce *identical*
assignments -- the property pinned by the simulator's equivalence grid
(``tests/sim/test_equivalence.py``).

Columns are pluggable: :func:`register_score_column` adds a named column
that declarative heuristics can reference from their spec; custom ``pair``
columns fall back to per-pair scalar evaluation inside the vector backend
while selection stays vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.completion import FAST_FOLD_SUP_NORM_TOL, chance_upper_bound
from .base import (Assignment, MachineState, MappingContext, ScoreSpec,
                   TaskView, TwoPhaseMappingHeuristic)

__all__ = ["ScoreColumn", "SCORE_COLUMNS", "register_score_column",
           "evaluate_columns", "run_two_phase", "run_ordered_plane"]

#: Column kinds understood by the vector backend (see :class:`ScoreColumn`).
COLUMN_KINDS = ("appended_mean", "appended_chance", "task", "static_pair",
                "pair")


@dataclass(frozen=True)
class ScoreColumn:
    """One named column of the (task x machine) score plane.

    Attributes
    ----------
    name:
        Registry name referenced by :class:`~repro.mapping.base.ScoreSpec`.
    scalar:
        Per-pair evaluation ``(ctx, machine, task) -> float``; the loop
        backend uses it exclusively, the vector backend only for ``pair`` /
        ``static_pair`` / ``task`` kinds (``task`` columns are called with
        ``machine=None``).
    kind:
        How the vector backend fills the column:

        * ``appended_mean`` / ``appended_chance`` -- served by the batched
          appended-completion kernel (expected completion time / chance of
          success of the task appended to the machine's provisional tail);
          refilled whenever the tail moves.
        * ``task`` -- a per-task value independent of the machine.
        * ``static_pair`` -- a per-(task, machine) value independent of the
          provisional tail (never refilled).
        * ``pair`` -- a general per-(task, machine) value re-evaluated
          whenever the machine tail moves (scalar fallback for custom
          columns).
    negate:
        For ``appended_chance`` columns: store the *negated* chance so the
        engine's minimisation maximises the chance of success.
    """

    name: str
    scalar: Callable[[MappingContext, Optional[MachineState], TaskView], float]
    kind: str = "pair"
    negate: bool = False


#: Registry of score columns available to declarative heuristics.
SCORE_COLUMNS: Dict[str, ScoreColumn] = {}


def register_score_column(name: str,
                          scalar: Callable[..., float],
                          kind: str = "pair",
                          negate: bool = False) -> ScoreColumn:
    """Register a named score column for use in :class:`ScoreSpec` columns."""
    if kind not in COLUMN_KINDS:
        raise ValueError(f"unknown column kind {kind!r}; expected one of "
                         f"{COLUMN_KINDS}")
    column = ScoreColumn(name=str(name), scalar=scalar, kind=kind,
                         negate=bool(negate))
    SCORE_COLUMNS[column.name] = column
    return column


register_score_column(
    "expected_completion",
    lambda ctx, machine, task: ctx.expected_completion(machine, task),
    kind="appended_mean")
_NEG_CHANCE = register_score_column(
    "neg_chance_of_success",
    lambda ctx, machine, task: -ctx.chance_of_success(machine, task),
    kind="appended_chance", negate=True)
register_score_column(
    "deadline",
    lambda ctx, machine, task: float(task.deadline),
    kind="task")
register_score_column(
    "mean_execution",
    lambda ctx, machine, task: ctx.mean_execution(task, machine),
    kind="static_pair")
register_score_column(
    "arrival",
    lambda ctx, machine, task: float(task.arrival),
    kind="task")
register_score_column(
    "mean_execution_over_types",
    lambda ctx, machine, task: ctx.mean_execution_over_types(task),
    kind="task")


def _column(name: str) -> ScoreColumn:
    try:
        return SCORE_COLUMNS[name]
    except KeyError:
        known = ", ".join(sorted(SCORE_COLUMNS))
        raise KeyError(f"unknown score column {name!r}; registered columns: "
                       f"{known}") from None


def evaluate_columns(names: Sequence[str], ctx: MappingContext,
                     machine: Optional[MachineState],
                     task: TaskView) -> Tuple[float, ...]:
    """Evaluate named columns for one (task, machine) pair (loop backend)."""
    return tuple(_column(name).scalar(ctx, machine, task) for name in names)


def _tiebreak_scalar(name: str, ctx: MappingContext, machine: MachineState,
                     task: TaskView):
    """Tie-break key component for the loop backend."""
    if name == "machine_id":
        return machine.machine_id
    if name == "task_id":
        return task.task_id
    return _column(name).scalar(ctx, machine, task)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
#: Window sizes below this have no plane width worth vectorising: the
#: vector engine dispatches them to the scalar loop (identical results;
#: NumPy per-round overhead would dominate a narrow "plane").  The default
#: is the *measured* vector-vs-loop crossover: ``repro bench`` times both
#: backends over a sweep of forced window sizes on the current platform,
#: and on the reference machine (min-of-2 timings,
#: widths 1-14) the loop wins clearly up to ~9-task planes, the ratio
#: crosses 1.0 around 10-13 (within run-to-run noise), and the vector
#: engine wins from there up.  Override per run via
#: ``SystemConfig.small_plane_tasks`` /
#: :attr:`MappingContext.small_plane_tasks` when your platform's
#: crossover measures differently.
SMALL_PLANE_TASKS = 10


def run_two_phase(heuristic: TwoPhaseMappingHeuristic,
                  tasks: Sequence[TaskView],
                  machines: Sequence[MachineState],
                  ctx: MappingContext) -> List[Assignment]:
    """Execute a two-phase heuristic on the backend selected by ``ctx``.

    Declarative heuristics run on ``ctx.scoring``; legacy subclasses that
    override the imperative score callables are pinned to the loop backend
    (the vector engine cannot see inside an arbitrary override).  Degenerate
    planes -- windows of fewer than :data:`SMALL_PLANE_TASKS` tasks -- are
    dispatched to the loop backend even under ``"vector"``: both backends
    pick identical assignments, and a one-row plane only pays NumPy
    overhead.
    """
    spec = heuristic.score_spec
    threshold = (ctx.small_plane_tasks if ctx.small_plane_tasks is not None
                 else SMALL_PLANE_TASKS)
    if (spec is not None and ctx.scoring == "vector"
            and len(tasks) >= threshold
            and not _overrides_scores(heuristic)):
        return _map_vector(spec, tasks, machines, ctx)
    return _map_loop(heuristic, tasks, machines, ctx)


def run_ordered_plane(spec: ScoreSpec, tasks: Sequence[TaskView],
                      machines: Sequence[MachineState],
                      ctx: MappingContext) -> List[Assignment]:
    """Execute an ordered heuristic's one-phase spec on the vector engine.

    The spec (built by ``OrderedMappingHeuristic.__init_subclass__``) maps
    the greedy most-urgent-task-first loop onto the two-phase plane: phase 1
    is the machine choice (minimum expected completion, lowest machine id on
    ties) and phase 2 the static priority key with one global winner per
    round -- so the engine commits tasks in exactly the order the reference
    loop's pre-sort would, while the expected-completion column is filled
    through the batched kernel and only refilled for moved machines.
    """
    return _map_vector(spec, tasks, machines, ctx)


def _overrides_scores(heuristic: TwoPhaseMappingHeuristic) -> bool:
    cls = type(heuristic)
    return (cls.phase1_score is not TwoPhaseMappingHeuristic.phase1_score
            or cls.phase2_score is not TwoPhaseMappingHeuristic.phase2_score)


# ----------------------------------------------------------------------
# Loop backend (reference)
# ----------------------------------------------------------------------
def _map_loop(heuristic: TwoPhaseMappingHeuristic,
              tasks: Sequence[TaskView],
              machines: Sequence[MachineState],
              ctx: MappingContext) -> List[Assignment]:
    """Per-pair reference backend: the historical ``map_tasks`` loop."""
    spec = heuristic.score_spec
    tb1 = spec.phase1_tiebreak if spec is not None else ("machine_id",)
    tb2 = spec.phase2_tiebreak if spec is not None else ("task_id",)
    per_machine = heuristic.assign_per_machine
    # PAM's phase 1 under exact numerics: bounded, same pick (see
    # ``_max_chance_machine``).
    max_chance = (spec is not None
                  and spec.phase1 == ("neg_chance_of_success",)
                  and tb1 == ("machine_id",)
                  and SCORE_COLUMNS.get("neg_chance_of_success") is _NEG_CHANCE
                  and not ctx._fast
                  and not _overrides_scores(heuristic))

    unmapped: List[TaskView] = list(tasks)
    assignments: List[Assignment] = []

    while unmapped and any(m.has_free_slot for m in machines):
        free_machines = [m for m in machines if m.has_free_slot]
        ctx.plane_rounds += 1
        ctx.plane_evals += len(unmapped) * (len(free_machines) + 1)

        # Phase 1: each task picks its best machine.  The default
        # tie-breaks keep the historical two-element keys (this loop is
        # the timing reference, so it must not pay for generality).
        pairs: List[Tuple[TaskView, MachineState]] = []
        for task in unmapped:
            if max_chance:
                pairs.append((task, _max_chance_machine(ctx, task,
                                                        free_machines)))
                continue
            if tb1 == ("machine_id",):
                key = lambda m: (heuristic.phase1_score(ctx, m, task),
                                 m.machine_id)
            else:
                key = lambda m: (heuristic.phase1_score(ctx, m, task),
                                 *(_tiebreak_scalar(n, ctx, m, task)
                                   for n in tb1))
            pairs.append((task, min(free_machines, key=key)))

        # Phase 2: resolve contention per machine (or globally).
        if tb2 == ("task_id",):
            def p2key(tm: Tuple[TaskView, MachineState]):
                task, machine = tm
                return (heuristic.phase2_score(ctx, machine, task),
                        task.task_id)
        else:
            def p2key(tm: Tuple[TaskView, MachineState]):
                task, machine = tm
                return (heuristic.phase2_score(ctx, machine, task),
                        *(_tiebreak_scalar(n, ctx, machine, task)
                          for n in tb2))

        if per_machine:
            by_machine: Dict[int, List[Tuple[TaskView, MachineState]]] = {}
            for task, machine in pairs:
                by_machine.setdefault(machine.machine_id, []).append((task, machine))
            committed = [min(machine_pairs, key=p2key)
                         for machine_pairs in by_machine.values()]
        else:
            # Single global winner per round (PAM).
            committed = [min(pairs, key=p2key)]

        if not committed:
            break
        for task, machine in committed:
            new_tail = ctx.completion_if_appended(machine, task)
            machine.commit(new_tail)
            unmapped.remove(task)
            assignments.append(Assignment(task.task_id, machine.machine_id))
    return assignments


def _max_chance_machine(ctx: MappingContext, task: TaskView,
                        machines: Sequence[MachineState]) -> MachineState:
    """``min(machines, key=(-chance of success, machine_id))`` with fewer folds.

    Machines are visited in descending
    :func:`~repro.core.completion.chance_upper_bound` of the task appended
    to their tail, which no exact chance exceeds by more than
    :data:`FAST_FOLD_SUP_NORM_TOL`.  A machine whose bound plus that
    tolerance is below the best exact chance found so far cannot win or
    tie, and neither can any machine after it, so the visit stops there.
    A bound of exactly ``0.0`` is an exact chance of ``0.0``
    (``docs/INVARIANTS.md``), so no fold is needed for it.  The pick is
    the reference loop's.
    """
    bounds = sorted(((chance_upper_bound(m.tail_pmf, ctx.exec_pmf(task, m),
                                         task.deadline), m)
                     for m in machines),
                    key=lambda bm: -bm[0])
    best = bounds[0][1]
    best_chance = -1.0
    for bound, machine in bounds:
        if bound + FAST_FOLD_SUP_NORM_TOL < best_chance:
            break
        chance = 0.0 if bound == 0.0 else ctx.chance_of_success(machine, task)
        if chance > best_chance or (chance == best_chance
                                    and machine.machine_id < best.machine_id):
            best, best_chance = machine, chance
    return best


# ----------------------------------------------------------------------
# Vector backend
# ----------------------------------------------------------------------
def _lex_argmin_rows(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise lexicographic argmin over stacked key columns.

    ``cols`` are equally-shaped (rows x candidates) matrices compared in
    order; the returned index per row is the *first* candidate attaining
    the lexicographic minimum, which matches Python's first-wins ``min``.
    """
    first = cols[0]
    cand = first == first.min(axis=1, keepdims=True)
    for col in cols[1:]:
        masked = np.where(cand, col, np.inf)
        cand &= masked == masked.min(axis=1, keepdims=True)
    return cand.argmax(axis=1)


def _lex_argmin_1d(cols: Sequence[np.ndarray]) -> int:
    """Lexicographic argmin over parallel 1-D key arrays (first wins)."""
    first = cols[0]
    cand = first == first.min()
    for col in cols[1:]:
        masked = np.where(cand, col, np.inf)
        cand &= masked == masked.min()
    return int(cand.argmax())


def _map_vector(spec: ScoreSpec, tasks: Sequence[TaskView],
                machines: Sequence[MachineState],
                ctx: MappingContext) -> List[Assignment]:
    """Batched backend: materialised score plane + vectorised selection.

    The plane is filled column-by-column through
    :meth:`MappingContext.score_block`; between rounds only the columns of
    machines whose provisional tail moved (their ``version`` bumped) are
    refilled, for the rows still unmapped.  Candidate matrices keep the
    *input order* of tasks and machines, so full ties beyond the declared
    tie-break columns resolve to the first candidate exactly as the loop
    backend's first-wins ``min`` does.
    """
    task_list = list(tasks)
    machine_list = list(machines)
    if not task_list or not machine_list:
        return []
    num_tasks, num_machines = len(task_list), len(machine_list)

    # Only phase-1 columns are materialised as full (task x machine)
    # matrices: phase 1 genuinely needs the whole plane, while phase 2 only
    # reads each task's own target machine -- a thin diagonal the loop
    # backend scores pair-by-pair through the memoised context.  Columns
    # referenced solely by phase 2 are therefore gathered lazily per round
    # (PAM's expected-completion tie chain, for instance, would otherwise
    # cost a full plane of means for one winner per round).
    plane_names: List[str] = []
    for name in spec.phase1 + spec.phase1_tiebreak:
        if name not in ("machine_id", "task_id") and name not in plane_names:
            plane_names.append(name)
    task_names = [
        name for name in dict.fromkeys(
            spec.phase1 + spec.phase2
            + spec.phase1_tiebreak + spec.phase2_tiebreak)
        if name not in ("machine_id", "task_id")
        and _column(name).kind == "task"]
    plane_cols = [_column(name) for name in plane_names]
    need_mean = any(c.kind == "appended_mean" for c in plane_cols)
    need_chance = any(c.kind == "appended_chance" for c in plane_cols)
    appended_cols = [c for c in plane_cols
                     if c.kind in ("appended_mean", "appended_chance")]
    pair_cols = [c for c in plane_cols if c.kind == "pair"]
    static_cols = [c for c in plane_cols if c.kind == "static_pair"]

    task_ids = np.array([t.task_id for t in task_list], dtype=np.int64)
    machine_ids = np.array([m.machine_id for m in machine_list], dtype=np.int64)
    task_vals: Dict[str, np.ndarray] = {
        name: np.array([_column(name).scalar(ctx, None, t)
                        for t in task_list], dtype=np.float64)
        for name in task_names}
    mats: Dict[str, np.ndarray] = {
        c.name: np.empty((num_tasks, num_machines), dtype=np.float64)
        for c in plane_cols if c.kind != "task"}

    def key_matrix(name: str, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
        """Key column over the (rows x cols) candidate sub-plane."""
        if name == "machine_id":
            return np.broadcast_to(machine_ids[cols].astype(np.float64),
                                   (rows.size, cols.size))
        if name == "task_id":
            return np.broadcast_to(
                task_ids[rows].astype(np.float64)[:, None],
                (rows.size, cols.size))
        column = _column(name)
        if column.kind == "task":
            return np.broadcast_to(task_vals[name][rows][:, None],
                                   (rows.size, cols.size))
        return mats[name][np.ix_(rows, cols)]

    def key_vector(name: str, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Key values of the (rows[i], cols[i]) candidate pairs.

        Served from the materialised plane when the column is a phase-1
        matrix; otherwise gathered lazily through the column's scalar
        (which hits the context's per-(machine, version, task) memos, so
        repeat rounds cost dictionary probes exactly like the loop).
        """
        if name == "machine_id":
            return machine_ids[cols].astype(np.float64)
        if name == "task_id":
            return task_ids[rows].astype(np.float64)
        if name in task_vals:
            return task_vals[name][rows]
        if name in mats:
            return mats[name][rows, cols]
        column = _column(name)
        ctx.plane_evals += rows.size
        return np.array(
            [column.scalar(ctx, machine_list[int(c)], task_list[int(r)])
             for r, c in zip(rows, cols)], dtype=np.float64)

    filled_version: List[Optional[int]] = [None] * num_machines
    alive = np.ones(num_tasks, dtype=bool)
    assignments: List[Assignment] = []

    while True:
        rows = np.nonzero(alive)[0]
        if rows.size == 0:
            break
        free = [j for j in range(num_machines)
                if machine_list[j].has_free_slot]
        if not free:
            break
        ctx.plane_rounds += 1

        # (Re)fill stale phase-1 columns for the rows still in play.
        for j in free:
            machine = machine_list[j]
            if filled_version[j] == machine.version:
                continue
            if filled_version[j] is None:
                # Tail-independent columns are filled once, on the
                # machine's first appearance, and never refilled.
                for c in static_cols:
                    col = mats[c.name]
                    for i in rows:
                        col[i, j] = c.scalar(ctx, machine, task_list[int(i)])
            if appended_cols:
                block = [task_list[int(i)] for i in rows]
                means, chances = ctx.score_block(
                    machine, block, want_mean=need_mean,
                    want_chance=need_chance)
                for c in appended_cols:
                    if c.kind == "appended_mean":
                        mats[c.name][rows, j] = means
                    else:
                        mats[c.name][rows, j] = (-chances if c.negate
                                                 else chances)
            for c in pair_cols:
                col = mats[c.name]
                for i in rows:
                    col[i, j] = c.scalar(ctx, machine, task_list[int(i)])
            filled_version[j] = machine.version

        # Phase 1: per task, lexicographic argmin over the free machines.
        free_arr = np.array(free, dtype=np.int64)
        keys = [key_matrix(name, rows, free_arr)
                for name in spec.phase1 + spec.phase1_tiebreak]
        target = free_arr[_lex_argmin_rows(keys)]

        # Phase 2: resolve contention per machine (or globally).  Key
        # values are evaluated at each task's own target machine.
        committed: List[Tuple[int, int]] = []
        p2names = spec.phase2 + spec.phase2_tiebreak
        keys = [key_vector(name, rows, target) for name in p2names]
        if spec.assign_per_machine:
            # One stable lexsort picks every machine's winner at once:
            # primary key = target machine, then the phase-2 columns, then
            # the tie-breaks; stability resolves full ties to the first
            # task in window order, exactly like the loop's ``min``.
            order_idx = np.lexsort(tuple(reversed(keys)) + (target,))
            tsorted = target[order_idx]
            starts = np.empty(tsorted.size, dtype=bool)
            starts[0] = True
            np.not_equal(tsorted[1:], tsorted[:-1], out=starts[1:])
            win_pos = order_idx[starts]       # one winner per target machine
            # Commit in the order each machine was first targeted (the
            # insertion order of the loop backend's per-machine grouping).
            _, first_idx = np.unique(target, return_index=True)
            win_pos = win_pos[np.argsort(first_idx, kind="stable")]
            committed = [(int(rows[pos]), int(target[pos]))
                         for pos in win_pos]
        else:
            winner = _lex_argmin_1d(keys)
            committed.append((int(rows[winner]), int(target[winner])))

        if not committed:  # pragma: no cover - rows and free are non-empty
            break
        for row, j in committed:
            task = task_list[row]
            machine = machine_list[j]
            new_tail = ctx.completion_if_appended(machine, task)
            machine.commit(new_tail)
            alive[row] = False
            assignments.append(Assignment(task.task_id, machine.machine_id))
    return assignments
