"""Eq. 1 chain walker against an independent oracle: exact enumeration.

Every other chain test compares two of our own implementations.  This one
enumerates every outcome of a tiny queue -- each base completion time and
each execution time of every task -- and applies the paper's semantics
directly: a task starts iff its predecessor completes before the task's
deadline, and otherwise it is reactively dropped and passes the
predecessor's completion time through.  Supports are at most three bins
whose probabilities keep every outcome's probability above the fold's
pruning threshold, so the chain functions must match the enumeration up to
floating-point rounding.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.completion import (ChainFolder, QueueEntry, active_folder,
                                   chance_of_success, queue_completion_pmfs)
from repro.core.dropping import MachineQueueView, ProactiveHeuristicDropping
from repro.core.pmf import DEFAULT_PRUNE_EPS, PMF
from repro.core.robustness import (instantaneous_robustness,
                                   instantaneous_robustness_with_drops)

TOL = 1e-12


@st.composite
def small_pmfs(draw, min_time, max_time, mass=1.0):
    """At most three bins; integer weights 1..20 keep each bin >= 1e-3."""
    times = draw(st.lists(st.integers(min_time, max_time), min_size=1,
                          max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 20), min_size=len(times),
                            max_size=len(times)))
    total = sum(weights)
    return PMF.from_impulses(times, [mass * w / total for w in weights])


@st.composite
def queues(draw):
    """(base, entries, dropped): a sub-probability base, up to four tasks
    with deadlines from before the base origin to past every completion,
    and a subset of positions to drop."""
    mass = draw(st.sampled_from([1.0, 0.75, 0.3]))
    base = draw(small_pmfs(0, 6, mass=mass))
    n = draw(st.integers(1, 4))
    entries = tuple(
        QueueEntry(task_id=i, exec_pmf=draw(small_pmfs(1, 6)),
                   deadline=draw(st.integers(base.origin - 2, 30)))
        for i in range(n))
    dropped = draw(st.sets(st.integers(0, n - 1)))
    return base, entries, sorted(dropped)


def impulses(pmf):
    times, probs = pmf.impulses()
    return list(zip(times.tolist(), probs.tolist()))


def enumerate_chain(base, entries, dropped=()):
    """Per position: (completion-time distribution, chance of success).

    A dropped position is removed from the queue; its slot holds
    ``(None, 0.0)``.
    """
    kept = [i for i in range(len(entries)) if i not in set(dropped)]
    dists = {i: {} for i in kept}
    success = {i: 0.0 for i in kept}
    outcomes = itertools.product(
        impulses(base), *(impulses(entries[i].exec_pmf) for i in kept))
    for (finish, path), *execs in outcomes:
        for _, p_exec in execs:
            path *= p_exec
        assert path >= DEFAULT_PRUNE_EPS  # so no fold may prune
        for i, (duration, _) in zip(kept, execs):
            if finish < entries[i].deadline:
                finish += duration
                if finish < entries[i].deadline:
                    success[i] += path
            dists[i][finish] = dists[i].get(finish, 0.0) + path
    return [(dists[i], success[i]) if i in dists else (None, 0.0)
            for i in range(len(entries))]


def assert_same_distribution(pmf, dist):
    got = dict(impulses(pmf))
    for t in set(got) | set(dist):
        assert got.get(t, 0.0) == pytest.approx(dist.get(t, 0.0), abs=TOL)


@pytest.mark.parametrize("folder", [None, "memo"])
@settings(max_examples=150, deadline=None)
@given(queue=queues())
def test_chain_functions_match_enumeration(folder, queue):
    base, entries, dropped = queue
    oracle = enumerate_chain(base, entries)
    oracle_dropped = enumerate_chain(base, entries, dropped)
    with active_folder(ChainFolder() if folder else None):
        completions = queue_completion_pmfs(base, entries)
        for pmf, entry, (dist, chance) in zip(completions, entries, oracle):
            assert_same_distribution(pmf, dist)
            assert chance_of_success(pmf, entry.deadline) == pytest.approx(
                chance, abs=TOL)
        robustness = sum(chance for _, chance in oracle)
        assert instantaneous_robustness(base, entries) == pytest.approx(
            robustness, abs=TOL)
        assert instantaneous_robustness_with_drops(
            base, entries, dropped) == pytest.approx(
            sum(chance for _, chance in oracle_dropped), abs=TOL)
        # The heuristic reports its before/after robustness through the
        # same walker.
        view = MachineQueueView(machine_id=0, now=0, base_pmf=base,
                                entries=entries)
        decision = ProactiveHeuristicDropping().evaluate_queue(view)
        assert decision.robustness_before == pytest.approx(robustness,
                                                           abs=TOL)
        after = enumerate_chain(base, entries, decision.drop_indices)
        assert decision.robustness_after == pytest.approx(
            sum(chance for _, chance in after), abs=TOL)
