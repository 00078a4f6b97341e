"""The closed-form chance bound and mean slack never change a decision.

``chance_upper_bound`` lets the dropping heuristic skip Eq. 8 drop-branch
folds and PAM's phase 1 skip the folds of machines that cannot win.  These
properties check, on random views, that both skips are invisible: the same
drop indices and robustness values as re-folding every window, the same
phase-1 machine as scoring every free machine, and a bound that is never
below the exact chance.  Bases may be sub-probability or empty, and
deadlines may fall at or before the base's origin.

``certified_mean`` does the same for the expected-completion column of MM,
MSD and the ordered heuristics: the exact mean lies within the slack of the
closed form, and the walk picks the machine that scoring every free machine
picks, raising where that raises.

The heuristic also reads the simulator's tail chain when a view carries
one: given that chain, it must decide bit for bit as when it folds its own,
and the survivors' chain it hands back must be the Eq. 1 chain of the kept
tasks.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import (ChainFolder, QueueEntry, active_folder,
                                   certified_mean, chance_of_success,
                                   chance_upper_bound, completion_pmf,
                                   queue_completion_pmfs)
from repro.core.dropping import MachineQueueView, ProactiveHeuristicDropping
from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.core.robustness import (instantaneous_robustness,
                                   instantaneous_robustness_with_drops)
from repro.mapping import EDF, MSD, PAM, MinMin
from repro.mapping.base import (Assignment, MachineState, MappingContext,
                                TaskView)
from repro.mapping.kernel import _max_chance_machine, _min_mean_machine


@st.composite
def proper_pmfs(draw, max_bins=4, max_time=40):
    """Execution-time PMFs: 1..``max_bins`` impulses at positive times."""
    support = draw(st.integers(min_value=1, max_value=max_bins))
    times = draw(st.lists(st.integers(min_value=1, max_value=max_time),
                          min_size=support, max_size=support, unique=True))
    weights = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=support, max_size=support))
    total = sum(weights)
    return PMF.from_impulses(times, [w / total for w in weights])


@st.composite
def sub_pmfs(draw, max_origin=40, masses=(0.0, 0.3, 0.9, 1.0)):
    """Bases and tails: sub-probability, often empty, at any origin."""
    mass = draw(st.sampled_from(masses))
    if mass == 0.0:
        return PMF.empty()
    origin = draw(st.integers(min_value=0, max_value=max_origin))
    size = draw(st.integers(min_value=1, max_value=5))
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=size, max_size=size))
    total = sum(weights)
    if total == 0.0:
        return PMF.delta(origin)
    return PMF(origin, [mass * (w / total) for w in weights])


@st.composite
def queue_views(draw):
    base = draw(sub_pmfs())
    length = draw(st.integers(min_value=1, max_value=6))
    entries = []
    for task_id in range(length):
        # Deadlines from 0 up: many at or before the base origin.
        deadline = draw(st.integers(min_value=0, max_value=40 + 25 * task_id))
        entries.append(QueueEntry(task_id=task_id,
                                  exec_pmf=draw(proper_pmfs()),
                                  deadline=deadline))
    return MachineQueueView(machine_id=0, now=0, base_pmf=base,
                            entries=tuple(entries))


def _window_probs(prefix: PMF, entries: List[QueueEntry], start: int,
                  end: int, skip: Optional[int]) -> List[float]:
    """Chances of positions ``start..end`` behind ``prefix``; ``skip`` is a
    provisionally dropped position (chance 0, no fold)."""
    probs: List[float] = []
    prev = prefix
    for n in range(start, end + 1):
        entry = entries[n]
        if skip is not None and n == skip:
            probs.append(0.0)
            continue
        prev = completion_pmf(prev, entry.exec_pmf, entry.deadline)
        probs.append(chance_of_success(prev, entry.deadline))
    return probs


def _reference_drops(view: MachineQueueView, beta: float,
                     eta: int) -> List[int]:
    """The unskipped walk: both Eq. 8 windows re-folded for every task."""
    entries = list(view.entries)
    q = len(entries)
    dropped: List[int] = []
    prefix = view.base_pmf
    for i in range(q - 1):
        window_end = min(i + eta, q - 1)
        kept = _window_probs(prefix, entries, i, window_end, skip=None)
        drop = _window_probs(prefix, entries, i, window_end, skip=i)
        if sum(drop[1:]) > beta * sum(kept):
            dropped.append(i)
        else:
            prefix = completion_pmf(prefix, entries[i].exec_pmf,
                                    entries[i].deadline)
    return dropped


@settings(max_examples=300, deadline=None)
@given(view=queue_views(), beta=st.floats(min_value=1.0, max_value=3.0),
       eta=st.integers(min_value=1, max_value=4), with_folder=st.booleans())
def test_skip_keeps_every_decision(view, beta, eta, with_folder):
    policy = ProactiveHeuristicDropping(beta=beta, eta=eta)
    with active_folder(ChainFolder() if with_folder else None):
        decision = policy.evaluate_queue(view)
    with active_folder(None):
        expected = _reference_drops(view, beta, eta)
        before = instantaneous_robustness(view.base_pmf, view.entries)
        after = instantaneous_robustness_with_drops(
            view.base_pmf, view.entries, expected)
    assert list(decision.drop_indices) == expected
    assert abs(decision.robustness_before - before) <= 1e-12
    assert abs(decision.robustness_after - after) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(view=queue_views(), beta=st.floats(min_value=1.0, max_value=3.0),
       eta=st.integers(min_value=1, max_value=4), with_folder=st.booleans())
def test_shared_chain_keeps_every_bit(view, beta, eta, with_folder):
    policy = ProactiveHeuristicDropping(beta=beta, eta=eta)
    with active_folder(None):
        chain = queue_completion_pmfs(view.base_pmf, view.entries)
    with active_folder(ChainFolder() if with_folder else None):
        own = policy.evaluate_queue(view)
        shared = policy.evaluate_queue(replace(view, chain=chain))
    assert shared.drop_indices == own.drop_indices
    assert shared.robustness_before.hex() == own.robustness_before.hex()
    assert shared.robustness_after.hex() == own.robustness_after.hex()
    if not own.drop_indices:
        assert own.chain is None and shared.chain is None
        return
    kept = [entry for n, entry in enumerate(view.entries)
            if n not in own.drop_indices]
    with active_folder(None):
        expected = queue_completion_pmfs(view.base_pmf, kept)
    assert len(shared.chain) == len(own.chain) == len(kept)
    for got, mine, want in zip(shared.chain, own.chain, expected):
        assert got.identical(want) and mine.identical(want)


def test_view_rejects_a_chain_of_the_wrong_length():
    entry = QueueEntry(task_id=0, exec_pmf=PMF.delta(3), deadline=9)
    with pytest.raises(ValueError, match="chain"):
        MachineQueueView(machine_id=0, now=0, base_pmf=PMF.delta(0),
                         entries=(entry,), chain=[])


@settings(max_examples=300, deadline=None)
@given(prev=sub_pmfs(), exec_pmf=proper_pmfs(),
       deadline=st.integers(min_value=0, max_value=100))
def test_bound_is_never_below_the_exact_chance(prev, exec_pmf, deadline):
    with active_folder(None):
        exact = completion_pmf(prev, exec_pmf, deadline).mass_before(deadline)
    assert exact <= chance_upper_bound(prev, exec_pmf, deadline) + 1e-12


@st.composite
def phase1_planes(draw, masses=(0.0, 0.3, 0.9, 1.0)):
    """Machines (one type each, shuffled ids) and one task."""
    count = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.permutations(range(count)))
    pet = PETMatrix(("t0",), tuple(f"m{j}" for j in range(count)),
                    {(0, j): draw(proper_pmfs()) for j in range(count)})
    machines = [MachineState(machine_id=mid, type_id=j, free_slots=1,
                             tail_pmf=draw(sub_pmfs(masses=masses)))
                for j, mid in enumerate(ids)]
    # Small deadlines make every chance zero on many planes.
    deadline = draw(st.one_of(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=0, max_value=90)))
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=deadline)
    return pet, machines, task


@settings(max_examples=300, deadline=None)
@given(phase1_planes())
def test_phase1_pick_is_the_reference_min(plane):
    pet, machines, task = plane
    ctx = MappingContext(pet, 0, folder=ChainFolder(), scoring="loop")
    expected = min(machines, key=lambda m: (-ctx.chance_of_success(m, task),
                                            m.machine_id))
    assert _max_chance_machine(ctx, task, machines) is expected


class _ScoredPAM(PAM):
    """PAM through its per-pair phase-1 score (no bound skip)."""

    def phase1_score(self, ctx, machine, task):
        return super().phase1_score(ctx, machine, task)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pam_loop_assigns_like_the_scored_reference(data):
    # Phase 2 takes the mean of the appended PMF, so tails carry mass.
    pet, machines, _ = data.draw(phase1_planes(masses=(0.3, 1.0)))
    tasks = [TaskView(task_id=i, type_id=0, arrival=0,
                      deadline=data.draw(st.integers(min_value=0,
                                                     max_value=90)))
             for i in range(data.draw(st.integers(min_value=1,
                                                  max_value=5)))]

    def assign(mapper):
        states = [MachineState(machine_id=m.machine_id, type_id=m.type_id,
                               free_slots=2, tail_pmf=m.tail_pmf)
                  for m in machines]
        ctx = MappingContext(pet, 0, folder=ChainFolder(), scoring="loop")
        return mapper.map_tasks(tasks, states, ctx)

    assert assign(PAM()) == assign(_ScoredPAM())


#: Bin weights at and around the prune threshold, so folds lose mass.
_NEAR_EPS = (1e-13, 5e-13, 9.99e-13, 1e-12, 2e-12)


@st.composite
def chain_tails(draw, masses=(0.0, 1e-11, 0.3, 0.9, 1.0)):
    """Tails as the simulator builds them: a base folded through a few
    appends, with bins near the prune threshold and sub-probability mass."""
    mass = draw(st.sampled_from(masses))
    if mass == 0.0:
        return PMF.empty()
    origin = draw(st.integers(min_value=0, max_value=400))
    size = draw(st.integers(min_value=1, max_value=12))
    weights = draw(st.lists(st.one_of(st.floats(min_value=0.0,
                                                max_value=1.0),
                                      st.sampled_from(_NEAR_EPS)),
                            min_size=size, max_size=size))
    total = sum(weights)
    tail = (PMF.delta(origin) if total == 0.0
            else PMF(origin, [mass * (w / total) for w in weights]))
    with active_folder(None):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            deadline = draw(st.integers(min_value=0, max_value=700))
            tail = completion_pmf(tail, draw(shifted_pmfs()), deadline)
    return tail


@st.composite
def shifted_pmfs(draw):
    """Execution PMFs, some shifted by a transfer delay."""
    base = draw(proper_pmfs(max_bins=6))
    shift = draw(st.sampled_from((0, 0, 7, 120)))
    return PMF(base.origin + shift, base.probs)


def _exact_mean(prev, exec_pmf, deadline):
    with active_folder(None):
        return completion_pmf(prev, exec_pmf, deadline).mean()


@settings(max_examples=500, deadline=None)
@given(prev=chain_tails(), exec_pmf=shifted_pmfs(),
       deadline=st.integers(min_value=0, max_value=800))
def test_exact_mean_lies_within_the_slack(prev, exec_pmf, deadline):
    closed, slack = certified_mean(prev, exec_pmf, deadline)
    try:
        exact = _exact_mean(prev, exec_pmf, deadline)
    except ValueError:
        assert slack == float("inf")
        return
    assert abs(closed - exact) <= slack


@pytest.mark.parametrize("bins", [200, 2000])
def test_slack_is_within_twice_the_worst_pruning_shift(bins):
    # Every bin but the first sits just below the prune threshold: the fold
    # prunes them all, moving the mean by half the slack's pruning term.
    tiny = 0.999e-12
    prev = PMF(0, [1.0 - (bins - 1) * tiny] + [tiny] * (bins - 1))
    closed, slack = certified_mean(prev, PMF.delta(3), 0)
    exact = _exact_mean(prev, PMF.delta(3), 0)
    assert exact == 0.0
    assert 0.4 * slack < abs(closed - exact) <= slack


@pytest.mark.parametrize("mass", [0.1, 0.3, 0.7, 0.9, 1.0 / 3.0])
@pytest.mark.parametrize("time", [1, 997, 123_457, 9_999_991])
def test_single_bin_means_within_the_float_term(mass, time):
    # One bin: nothing to prune and a zero span, so only the float term
    # of the slack covers the rounding of ``time * mass / mass``.
    prev = PMF(time, [mass])
    for exec_pmf, deadline in ((PMF.delta(5), time + 1), (PMF.delta(5), 0),
                               (PMF(2, [mass]), time + 1)):
        closed, slack = certified_mean(prev, exec_pmf, deadline)
        assert abs(closed - _exact_mean(prev, exec_pmf, deadline)) <= slack


@st.composite
def mean_planes(draw, masses=(0.0, 0.3, 0.9, 1.0)):
    """Machines drawing tails and types from small pools, so exact ties
    (same tail, same PET entry) and shared empty tails are common."""
    count = draw(st.integers(min_value=1, max_value=7))
    types = draw(st.integers(min_value=1, max_value=3))
    pet = PETMatrix(("t0",), tuple(f"m{j}" for j in range(types)),
                    {(0, j): draw(shifted_pmfs()) for j in range(types)})
    tails = draw(st.lists(chain_tails(masses=masses), min_size=1,
                          max_size=3))
    ids = draw(st.permutations(range(count)))
    machines = [MachineState(machine_id=mid,
                             type_id=draw(st.integers(0, types - 1)),
                             free_slots=2,
                             tail_pmf=draw(st.sampled_from(tails)))
                for mid in ids]
    deadline = draw(st.integers(min_value=0, max_value=800))
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=deadline)
    return pet, machines, task


def _pick(choose):
    """``choose()``, or the ``ValueError`` type it raises."""
    try:
        return choose()
    except ValueError:
        return ValueError


@settings(max_examples=500, deadline=None)
@given(plane=mean_planes(), with_folder=st.booleans())
def test_mean_walk_picks_the_reference_min(plane, with_folder):
    pet, machines, task = plane

    def ctx():
        return MappingContext(pet, 0, scoring="loop",
                              folder=ChainFolder() if with_folder else None)

    ref_ctx = ctx()
    expected = _pick(lambda: min(
        machines, key=lambda m: (ref_ctx.expected_completion(m, task),
                                 m.machine_id)))
    assert _pick(lambda: _min_mean_machine(ctx(), task, machines)) \
        is expected


def test_mean_walk_breaks_exact_ties_by_machine_id():
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): PMF(4, [0.25, 0.75])})
    tail = PMF(10, [0.5, 0.5])
    machines = [MachineState(machine_id=mid, type_id=0, free_slots=1,
                             tail_pmf=tail) for mid in (3, 1, 2)]
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=50)
    ctx = MappingContext(pet, 0, folder=ChainFolder(), scoring="loop")
    assert _min_mean_machine(ctx, task, machines).machine_id == 1


def test_mean_walk_raises_on_an_empty_tail_like_the_reference():
    pet = PETMatrix(("t0",), ("m0",), {(0, 0): PMF.delta(4)})
    machines = [MachineState(machine_id=0, type_id=0, free_slots=1,
                             tail_pmf=PMF.delta(0)),
                MachineState(machine_id=1, type_id=0, free_slots=1,
                             tail_pmf=PMF.empty())]
    task = TaskView(task_id=0, type_id=0, arrival=0, deadline=50)
    ctx = MappingContext(pet, 0, folder=ChainFolder(), scoring="loop")
    with pytest.raises(ValueError, match="empty"):
        min(machines, key=lambda m: (ctx.expected_completion(m, task),
                                     m.machine_id))
    with pytest.raises(ValueError, match="empty"):
        _min_mean_machine(ctx, task, machines)


class _ScoredMM(MinMin):
    """MM through its per-pair phase-1 score (no mean walk)."""

    def phase1_score(self, ctx, machine, task):
        return super().phase1_score(ctx, machine, task)


class _ScoredMSD(MSD):
    """MSD through its per-pair phase-1 score (no mean walk)."""

    def phase1_score(self, ctx, machine, task):
        return super().phase1_score(ctx, machine, task)


class _ScoredEDF(EDF):
    """EDF's greedy loop choosing machines by scoring every free one."""

    def map_tasks(self, tasks, machines, ctx):
        assignments = []
        for task in sorted(tasks, key=lambda t: (self.task_priority(ctx, t),
                                                 t.task_id)):
            free = [m for m in machines if m.has_free_slot]
            if not free:
                break
            machine = min(free, key=lambda m: (
                ctx.expected_completion(m, task), m.machine_id))
            machine.commit(ctx.completion_if_appended(machine, task))
            assignments.append(Assignment(task.task_id, machine.machine_id))
        return assignments


@pytest.mark.parametrize("mapper, reference", [
    (MinMin(), _ScoredMM()), (MSD(), _ScoredMSD()), (EDF(), _ScoredEDF())])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mean_walk_loop_assigns_like_the_scored_reference(mapper, reference,
                                                          data):
    # Phase 2 takes the mean of the appended PMF, so tails carry mass.
    pet, machines, _ = data.draw(mean_planes(masses=(0.3, 1.0)))
    tasks = [TaskView(task_id=i, type_id=0, arrival=i,
                      deadline=data.draw(st.integers(min_value=0,
                                                     max_value=800)))
             for i in range(data.draw(st.integers(min_value=1,
                                                  max_value=6)))]

    def assign(heuristic):
        states = [MachineState(machine_id=m.machine_id, type_id=m.type_id,
                               free_slots=2, tail_pmf=m.tail_pmf)
                  for m in machines]
        ctx = MappingContext(pet, 0, folder=ChainFolder(), scoring="loop")
        return heuristic.map_tasks(tasks, states, ctx)

    assert assign(mapper) == assign(reference)
