"""Repeated score queries on one mapping context stay dictionary hits.

Two-phase heuristics ask for the same (machine, task) score over several
rounds, and the commit path asks for the appended PMF the score plane just
produced.  The context's per-event append cache and the run's
:class:`~repro.core.completion.ChainFolder` memos answer those repeats, so
one pair costs one Eq. 1 fold under exact numerics and one closed-form
evaluation per score under fast numerics.
"""

import pytest

import repro.core.completion as completion
from repro.core.completion import ChainFolder
from repro.core.pet import PETMatrix
from repro.core.pmf import PMF
from repro.mapping.base import MachineState, MappingContext, TaskView


def make_pair(numerics):
    pet = PETMatrix(("t0",), ("m0",),
                    {(0, 0): PMF(3, [0.25, 0.5, 0.25])})
    folder = ChainFolder(numerics=numerics)
    ctx = MappingContext(pet, now=0, folder=folder)
    machine = MachineState(machine_id=0, type_id=0, free_slots=2,
                           tail_pmf=PMF(2, [0.5, 0.3, 0.2]))
    task = TaskView(task_id=7, type_id=0, arrival=0, deadline=7)
    return ctx, machine, task


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_exact_pair_folds_once(monkeypatch):
    ctx, machine, task = make_pair("exact")
    folds = counting(monkeypatch, completion, "_fold")
    first = ctx.chance_of_success(machine, task)
    assert ctx.chance_of_success(machine, task) == first
    mean = ctx.expected_completion(machine, task)
    means, chances = ctx.score_block(machine, [task], want_mean=True,
                                     want_chance=True)
    assert len(folds) == 1
    appended = ctx.completion_if_appended(machine, task)
    assert first == appended.mass_before(task.deadline)
    assert mean == appended.mean()
    assert (means[0], chances[0]) == (mean, first)
    assert len(folds) == 1


def test_fast_pair_scores_once(monkeypatch):
    ctx, machine, task = make_pair("fast")
    folds = counting(monkeypatch, completion, "_fold")
    chance_evals = counting(monkeypatch, ChainFolder, "_exec_cdf")
    mean_evals = counting(monkeypatch, ChainFolder, "_prev_prefix")
    chance = ctx.chance_of_success(machine, task)
    mean = ctx.expected_completion(machine, task)
    assert ctx.chance_of_success(machine, task) == chance
    assert ctx.expected_completion(machine, task) == mean
    means, chances = ctx.score_block(machine, [task], want_mean=True,
                                     want_chance=True)
    assert (means[0], chances[0]) == (mean, chance)
    assert len(chance_evals) == 1
    assert len(mean_evals) == 1
    assert not folds
    exact = completion.completion_pmf(machine.tail_pmf,
                                      ctx.exec_pmf(task, machine),
                                      task.deadline)
    assert chance == pytest.approx(exact.mass_before(task.deadline), abs=1e-9)
    assert mean == pytest.approx(exact.mean(), abs=1e-9)


def test_context_options_are_keyword_only():
    ctx, _, _ = make_pair("exact")
    # A stale positional pruning threshold must not bind to ``folder``.
    with pytest.raises(TypeError):
        MappingContext(ctx.pet, 0, 1e-12)
