"""The closed-form chance bound never changes a decision.

``chance_upper_bound`` lets the dropping heuristic skip Eq. 8 drop-branch
folds and PAM's phase 1 skip the folds of machines that cannot win.  These
properties check, on random views, that both skips are invisible: the same
drop indices and robustness values as re-folding every window, the same
phase-1 machine as scoring every free machine, and a bound that is never
below the exact chance.  Bases may be sub-probability or empty, and
deadlines may fall at or before the base's origin.

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
                                   chance_of_success, chance_upper_bound,
                                   completion_pmf, queue_completion_pmfs)
from repro.core.dropping import MachineQueueView, ProactiveHeuristicDropping
from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.core.robustness import (instantaneous_robustness,
                                   instantaneous_robustness_with_drops)
from repro.mapping import PAM
from repro.mapping.base import MachineState, MappingContext, TaskView
from repro.mapping.kernel import _max_chance_machine


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
