"""Bit-identity and memo behaviour of the batched Eq. 1 fold kernel.

``ChainFolder`` must produce results bit-for-bit identical to the plain
``completion_pmf`` composition on every branch of the fold -- that is the
invariant the simulator's equivalence guarantee rests on.  The memo must
only ever return the canonical result for *identical* inputs, and the
module-level ``active_folder`` hook must route (and un-route) the public
functions.
"""

import numpy as np
import pytest

from repro.core.completion import (FAST_FOLD_SUP_NORM_TOL, ChainFolder,
                                   QueueEntry, active_folder,
                                   batched_append_scores, chance_of_success,
                                   completion_pmf, queue_completion_pmfs)
from repro.core.pmf import DEFAULT_PRUNE_EPS, EMPTY_PMF, PMF


def _random_pmf(rng, origin_lo=0, origin_hi=40, size_lo=1, size_hi=24,
                mass=1.0):
    size = int(rng.integers(size_lo, size_hi + 1))
    probs = rng.random(size) + 1e-3
    probs = probs / probs.sum() * mass
    return PMF(int(rng.integers(origin_lo, origin_hi)), probs)


class TestFoldBitIdentity:
    def test_random_folds_match_completion_pmf(self):
        rng = np.random.default_rng(7)
        folder = ChainFolder()
        for _ in range(300):
            prev = _random_pmf(rng, mass=float(rng.uniform(0.2, 1.0)))
            exec_pmf = _random_pmf(rng, origin_lo=1, origin_hi=12, size_hi=8)
            deadline = int(rng.integers(-5, 90))
            expected = completion_pmf(prev, exec_pmf, deadline)
            got = folder.fold(prev, exec_pmf, deadline)
            assert got.origin == expected.origin
            assert np.array_equal(got.probs, expected.probs)

    def test_edge_branches(self):
        folder = ChainFolder()
        prev = PMF(10, [0.5, 0.5])
        exec_pmf = PMF(2, [1.0])
        # Deadline at/before the predecessor's origin: pure pass-through.
        assert folder.fold(prev, exec_pmf, 10).identical(prev)
        assert folder.fold(prev, exec_pmf, 5).identical(prev)
        # Deadline beyond the support: plain convolution.
        conv = folder.fold(prev, exec_pmf, 100)
        assert conv.identical(prev.convolve(exec_pmf))
        # Empty predecessor propagates the empty PMF.
        assert folder.fold(EMPTY_PMF, exec_pmf, 50) is EMPTY_PMF
        # Empty execution PMF: only the dropped branch remains.
        tail = folder.fold(prev, EMPTY_PMF, 11)
        assert tail.identical(prev.split_at(11)[1])

    def test_pruning_matches(self):
        folder = ChainFolder()
        prev = PMF(0, [1 - 6e-13, 5e-13, 1e-13])
        exec_pmf = PMF(1, [0.999, 0.001])
        expected = completion_pmf(prev, exec_pmf, 2)
        got = folder.fold(prev, exec_pmf, 2)
        assert got.identical(expected)
        # The on-time convolution spans t = 1..3; its last bin (5e-16) is
        # below the pruning threshold, so it is zeroed and trimmed.
        assert got.origin == 1 and got.probs.size == 2

    def test_fold_chain_matches_queue_completion(self):
        rng = np.random.default_rng(11)
        folder = ChainFolder()
        base = _random_pmf(rng)
        entries = [QueueEntry(task_id=i,
                              exec_pmf=_random_pmf(rng, origin_lo=1,
                                                   origin_hi=8, size_hi=6),
                              deadline=int(rng.integers(10, 120)))
                   for i in range(6)]
        expected = queue_completion_pmfs(base, entries)
        with active_folder(folder):
            got = queue_completion_pmfs(base, entries)
        assert folder._memo
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.identical(e)

    def test_positional_options_are_rejected(self):
        # The options are keyword-only: a stale positional pruning
        # threshold must not bind to any of them.
        with pytest.raises(TypeError):
            ChainFolder(1e-12)


class TestMemo:
    def test_identical_inputs_hit_the_memo(self):
        folder = ChainFolder()
        prev = PMF(0, [0.5, 0.5])
        exec_pmf = PMF(3, [0.25, 0.75])
        first = folder.fold(prev, exec_pmf, 20)
        hits = folder.memo_hits
        second = folder.fold(prev, exec_pmf, 20)
        assert second is first
        assert folder.memo_hits == hits + 1

    def test_different_effective_deadline_misses(self):
        # Deadlines that cut the predecessor's support at different points
        # produce different folds and must not share a memo entry.
        folder = ChainFolder()
        prev = PMF(0, [0.25, 0.25, 0.25, 0.25])
        exec_pmf = PMF(3, [0.25, 0.75])
        first = folder.fold(prev, exec_pmf, 2)
        hits = folder.memo_hits
        second = folder.fold(prev, exec_pmf, 3)
        assert folder.memo_hits == hits
        assert not np.array_equal(first.probs, second.probs)

    def test_deadlines_beyond_support_share_one_entry(self):
        # Any deadline at or past the predecessor's support end yields the
        # same plain convolution, so the clamped memo key unifies them --
        # the second fold is a hit returning the identical object.
        folder = ChainFolder()
        prev = PMF(0, [0.5, 0.5])
        exec_pmf = PMF(3, [0.25, 0.75])
        first = folder.fold(prev, exec_pmf, 20)
        hits = folder.memo_hits
        second = folder.fold(prev, exec_pmf, 21)
        assert folder.memo_hits == hits + 1
        assert second is first
        assert first.identical(completion_pmf(prev, exec_pmf, 21))
        # Deadlines at or before the origin all pass the chain through.
        third = folder.fold(prev, exec_pmf, 0)
        hits = folder.memo_hits
        fourth = folder.fold(prev, exec_pmf, -5)
        assert folder.memo_hits == hits + 1
        assert fourth is third
        assert fourth.identical(completion_pmf(prev, exec_pmf, -5))

    def test_start_event_empties_every_pmf_table(self):
        folder = ChainFolder(numerics="fast")
        prev = PMF(0, [0.25, 0.25, 0.25, 0.25])
        exec_pmf = PMF(3, [0.25, 0.75])
        first = folder.fold(prev, exec_pmf, 2)
        folder.chance(first, 5)
        folder.mean(first)
        folder.append_chance(prev, exec_pmf, 2)
        folder.append_mean(prev, exec_pmf, 2)
        folder.fold_batch(prev, [exec_pmf], [2])
        folder.start_event()
        for table in (folder._memo, folder._chance_memo, folder._mean_memo,
                      folder._append_chance_memo, folder._append_mean_memo,
                      folder._prev_cums, folder._fft_memo):
            assert not table
        # The tables keyed on PET entries survive the event.
        assert folder._cdf and folder._moments and folder._rfft
        # A repeat after the event boundary is a real fold, same bits.
        hits = folder.memo_hits
        again = folder.fold(prev, exec_pmf, 2)
        assert folder.memo_hits == hits
        assert again is not first and again.identical(first)

    def test_chance_memo_matches_mass_before(self):
        folder = ChainFolder()
        pmf = PMF(5, [0.25, 0.5, 0.25])
        for deadline in (4, 5, 6, 7, 9, 6):
            assert folder.chance(pmf, deadline) == pmf.mass_before(deadline)


class TestActiveFolder:
    def test_completion_pmf_routes_through_installed_folder(self):
        folder = ChainFolder()
        prev = PMF(0, [0.5, 0.5])
        exec_pmf = PMF(3, [0.25, 0.75])
        with active_folder(folder):
            first = completion_pmf(prev, exec_pmf, 20)
            second = completion_pmf(prev, exec_pmf, 20)
        assert second is first
        assert folder.memo_hits >= 1
        # Outside the block the plain path is back (fresh objects).
        third = completion_pmf(prev, exec_pmf, 20)
        assert third is not first
        assert third.identical(first)

    def test_none_shields_from_outer_folder(self):
        outer = ChainFolder()
        prev = PMF(0, [0.5, 0.5])
        exec_pmf = PMF(3, [0.25, 0.75])
        with active_folder(outer):
            with active_folder(None):
                completion_pmf(prev, exec_pmf, 20)
                completion_pmf(prev, exec_pmf, 20)
            assert outer.memo_hits == 0

    def test_chance_of_success_routes_through_folder(self):
        folder = ChainFolder()
        pmf = PMF(5, [0.25, 0.5, 0.25])
        with active_folder(folder):
            assert chance_of_success(pmf, 7) == pmf.mass_before(7)
        assert chance_of_success(pmf, 7) == pmf.mass_before(7)


def _sup_norm(a: PMF, b: PMF) -> float:
    """Sup-norm distance between two PMFs on the shared absolute time grid."""
    if a.is_empty and b.is_empty:
        return 0.0
    if a.is_empty or b.is_empty:
        other = b if a.is_empty else a
        return float(np.max(np.abs(other.probs)))
    lo = min(a.origin, b.origin)
    hi = max(a.origin + a.probs.size, b.origin + b.probs.size)
    grid_a = np.zeros(hi - lo)
    grid_a[a.origin - lo:a.origin - lo + a.probs.size] = a.probs
    grid_b = np.zeros(hi - lo)
    grid_b[b.origin - lo:b.origin - lo + b.probs.size] = b.probs
    return float(np.max(np.abs(grid_a - grid_b)))


class TestFastFoldBatch:
    """The batched rFFT kernel behind ``numerics="fast"``."""

    def test_matches_exact_within_tolerance(self):
        rng = np.random.default_rng(21)
        fast = ChainFolder(numerics="fast")
        exact = ChainFolder()
        for _ in range(40):
            prev = _random_pmf(rng, size_lo=4, size_hi=32,
                               mass=float(rng.uniform(0.2, 1.0)))
            exec_pmfs = [_random_pmf(rng, origin_lo=1, origin_hi=10,
                                     size_lo=2, size_hi=12)
                         for _ in range(int(rng.integers(2, 7)))]
            deadlines = [int(rng.integers(prev.origin - 3,
                                          prev.origin + prev.probs.size + 8))
                         for _ in exec_pmfs]
            got = fast.fold_batch(prev, exec_pmfs, deadlines)
            for g, ep, d in zip(got, exec_pmfs, deadlines):
                assert _sup_norm(g, exact.fold(prev, ep, d)) \
                    <= FAST_FOLD_SUP_NORM_TOL

    def test_power_of_two_padding_plan(self):
        folder = ChainFolder(numerics="fast")
        prev = PMF(0, np.full(10, 0.1))
        exec_pmfs = [PMF(1, np.full(5, 0.2)), PMF(1, np.full(3, 1 / 3))]
        folder.fold_batch(prev, exec_pmfs, [20, 20])
        # conv_len = 10 + 5 - 1 = 14 -> shared plan is the next power of
        # two, and both cached execution spectra were built against it.
        plans = {plan for (_, plan) in folder._rfft}
        assert plans == {16}
        (plan,) = plans
        assert plan >= 14 and plan & (plan - 1) == 0

    def test_renormalises_to_product_mass(self):
        rng = np.random.default_rng(22)
        folder = ChainFolder(numerics="fast")
        for _ in range(20):
            prev = _random_pmf(rng, size_lo=6, size_hi=24,
                               mass=float(rng.uniform(0.3, 1.0)))
            ep = _random_pmf(rng, origin_lo=1, origin_hi=6, size_lo=2,
                             size_hi=8, mass=float(rng.uniform(0.5, 1.0)))
            deadline = prev.origin + prev.probs.size // 2
            (got,) = folder.fold_batch(prev, [ep], [deadline])
            k = deadline - prev.origin
            expected_mass = (float(prev.probs[:k].sum()) * ep.total_mass
                             + float(prev.probs[k:].sum()))
            assert got.total_mass == pytest.approx(expected_mass, abs=1e-9)

    def test_prune_epsilon_applied(self):
        fast = ChainFolder(numerics="fast")
        exact = ChainFolder()
        prev = PMF(0, [0.5 - 6e-13, 5e-13, 0.25, 0.25 - 1e-13, 1e-13])
        ep = PMF(1, [1 - 3e-13, 2e-13, 1e-13])
        (got,) = fast.fold_batch(prev, [ep], [4])
        want = exact.fold(prev, ep, 4)
        assert ((got.probs == 0.0) | (got.probs >= DEFAULT_PRUNE_EPS)).all()
        # t = 2 holds ~6e-13 before pruning, on both kernels.
        assert got.prob_at(2) == 0.0 and want.prob_at(2) == 0.0
        assert _sup_norm(got, want) <= FAST_FOLD_SUP_NORM_TOL

    def test_degenerate_single_bin_operands_are_exact(self):
        fast = ChainFolder(numerics="fast")
        exact = ChainFolder()
        prev = PMF(3, [0.3, 0.3, 0.4])
        single = PMF(2, [0.8])
        # Single-bin execution PMF: scaled copy, bit-identical to exact.
        (got,) = fast.fold_batch(prev, [single], [5])
        assert got.identical(exact.fold(prev, single, 5))
        # Single-bin on-time slice (deadline cuts prev to one bin).
        ep = PMF(1, [0.5, 0.5])
        (got,) = fast.fold_batch(prev, [ep], [4])
        assert got.identical(exact.fold(prev, ep, 4))

    def test_edge_branches_match_exact(self):
        fast = ChainFolder(numerics="fast")
        exact = ChainFolder()
        prev = PMF(10, [0.5, 0.5])
        ep = PMF(2, [0.25, 0.75])
        # Pass-through (deadline at/before origin), empty exec, empty prev.
        for args in [(prev, ep, 10), (prev, ep, 5), (prev, EMPTY_PMF, 11)]:
            (got,) = fast.fold_batch(args[0], [args[1]], [args[2]])
            assert got.identical(exact.fold(*args))
        (got,) = fast.fold_batch(EMPTY_PMF, [ep], [50])
        assert got.is_empty

    def test_fft_memo_is_separate_from_exact_memo(self):
        folder = ChainFolder(numerics="fast")
        prev = PMF(0, np.full(8, 0.125))
        ep = PMF(1, [0.25, 0.5, 0.25])
        (batched,) = folder.fold_batch(prev, [ep], [6])
        # The exact fold memo never serves FFT-rounded values: a scalar
        # fold of the same inputs computes (and returns) the exact result.
        folded = folder.fold(prev, ep, 6)
        assert folded is not batched
        assert folded.identical(completion_pmf(prev, ep, 6))
        # Re-batching the same inputs is an FFT-memo hit: same objects out.
        hits = folder.memo_hits
        (again,) = folder.fold_batch(prev, [ep], [6])
        assert again is batched
        assert folder.memo_hits == hits + 1


class TestClosedFormScores:
    """``append_chance`` / ``append_mean``: fast scores without folding."""

    def test_append_chance_matches_exact_fold(self):
        rng = np.random.default_rng(31)
        folder = ChainFolder(numerics="fast")
        exact = ChainFolder()
        for _ in range(300):
            prev = _random_pmf(rng, mass=float(rng.uniform(0.2, 1.0)))
            ep = _random_pmf(rng, origin_lo=1, origin_hi=12, size_hi=8)
            deadline = int(rng.integers(prev.origin - 5,
                                        prev.origin + prev.probs.size + 10))
            expected = exact.fold(prev, ep, deadline).mass_before(deadline)
            got = folder.append_chance(prev, ep, deadline)
            assert got == pytest.approx(expected,
                                        abs=FAST_FOLD_SUP_NORM_TOL)

    def test_append_mean_matches_exact_fold(self):
        rng = np.random.default_rng(32)
        folder = ChainFolder(numerics="fast")
        exact = ChainFolder()
        checked = 0
        for _ in range(300):
            prev = _random_pmf(rng)
            ep = _random_pmf(rng, origin_lo=1, origin_hi=12, size_hi=8)
            deadline = int(rng.integers(prev.origin - 5,
                                        prev.origin + prev.probs.size + 10))
            folded = exact.fold(prev, ep, deadline)
            if folded.is_empty:
                continue
            checked += 1
            got = folder.append_mean(prev, ep, deadline)
            assert got == pytest.approx(folded.mean(), abs=1e-9)
        assert checked > 250

    def test_append_mean_edge_cases(self):
        folder = ChainFolder(numerics="fast")
        prev = PMF(10, [0.5, 0.5])
        ep = PMF(2, [0.25, 0.75])
        # Deadline at/before the origin: the fold passes prev through.
        assert folder.append_mean(prev, ep, 10) == pytest.approx(prev.mean())
        # Empty execution PMF: only the reactive-drop tail remains.
        tail = prev.split_at(11)[1]
        assert folder.append_mean(prev, EMPTY_PMF, 11) \
            == pytest.approx(tail.mean())
        with pytest.raises(ValueError, match="empty"):
            folder.append_mean(EMPTY_PMF, ep, 20)

    def test_append_chance_edge_cases(self):
        folder = ChainFolder(numerics="fast")
        prev = PMF(10, [0.5, 0.5])
        ep = PMF(2, [0.25, 0.75])
        assert folder.append_chance(prev, ep, 10) == 0.0
        assert folder.append_chance(EMPTY_PMF, ep, 20) == 0.0
        assert folder.append_chance(prev, EMPTY_PMF, 20) == 0.0

    def test_scores_are_memoised(self):
        folder = ChainFolder(numerics="fast")
        prev = PMF(0, [0.25, 0.25, 0.25, 0.25])
        ep = PMF(1, [0.5, 0.5])
        first_c = folder.append_chance(prev, ep, 3)
        first_m = folder.append_mean(prev, ep, 3)
        assert len(folder._append_chance_memo) == 1
        assert len(folder._append_mean_memo) == 1
        assert folder.append_chance(prev, ep, 3) == first_c
        assert folder.append_mean(prev, ep, 3) == first_m
        assert len(folder._append_chance_memo) == 1
        assert len(folder._append_mean_memo) == 1


class TestBatchedAppendScoresFast:
    """Fast dispatch of the score-plane kernel."""

    def _column(self, rng, n=5):
        prev = _random_pmf(rng, size_lo=6, size_hi=24)
        exec_pmfs = [_random_pmf(rng, origin_lo=1, origin_hi=8, size_hi=8)
                     for _ in range(n)]
        deadlines = [int(rng.integers(prev.origin + 1,
                                      prev.origin + prev.probs.size + 6))
                     for _ in range(n)]
        return prev, exec_pmfs, deadlines

    def test_fast_scores_match_exact_within_tolerance(self):
        rng = np.random.default_rng(41)
        fast = ChainFolder(numerics="fast")
        exact = ChainFolder()
        prev, exec_pmfs, deadlines = self._column(rng)
        e_pmfs, e_means, e_chances = batched_append_scores(
            prev, exec_pmfs, deadlines, folder=exact, want_chance=True)
        f_pmfs, f_means, f_chances = batched_append_scores(
            prev, exec_pmfs, deadlines, folder=fast, want_chance=True)
        # Fast scalar scores: closed-form, no PMFs materialised.
        assert all(p is None for p in f_pmfs)
        assert all(p is not None for p in e_pmfs)
        np.testing.assert_allclose(f_means, e_means, atol=1e-9)
        np.testing.assert_allclose(f_chances, e_chances,
                                   atol=FAST_FOLD_SUP_NORM_TOL)

    def test_want_pmfs_routes_through_fft_kernel(self):
        rng = np.random.default_rng(42)
        fast = ChainFolder(numerics="fast")
        exact = ChainFolder()
        prev, exec_pmfs, deadlines = self._column(rng)
        e_pmfs, _, _ = batched_append_scores(prev, exec_pmfs, deadlines,
                                             folder=exact)
        f_pmfs, f_means, _ = batched_append_scores(
            prev, exec_pmfs, deadlines, folder=fast, want_pmfs=True)
        for f, e in zip(f_pmfs, e_pmfs):
            assert f is not None
            assert _sup_norm(f, e) <= FAST_FOLD_SUP_NORM_TOL
        assert f_means is not None

    def test_exact_folder_ignores_want_pmfs(self):
        rng = np.random.default_rng(43)
        exact = ChainFolder()
        prev, exec_pmfs, deadlines = self._column(rng)
        pmfs, _, _ = batched_append_scores(prev, exec_pmfs, deadlines,
                                           folder=exact, want_pmfs=False)
        assert all(p is not None for p in pmfs)

    def test_unknown_numerics_profile_rejected(self):
        with pytest.raises(ValueError, match="numerics"):
            ChainFolder(numerics="bogus")
