"""Value and singleton semantics of the PMF type.

PMFs are plain immutable values: equal inputs build equal (not shared)
instances, and :meth:`PMF.identical` compares them bitwise.  These tests
pin constructor canonicalisation, the uniqueness of the zero-mass
singleton, the edge cases called out for the incremental caches
(sub-probability recombination, conditioning at/after the support end) and
pickling.
"""

import pickle

import numpy as np
import pytest

from repro.core.pmf import EMPTY_PMF, PMF


class TestConstructorInterning:
    """Public constructors canonicalise and validate; equal inputs build
    bitwise-identical (not shared) values."""

    def test_equal_inputs_build_identical_values(self):
        a = PMF(5, [0.25, 0.5, 0.25])
        b = PMF(5, [0.25, 0.5, 0.25])
        assert a.identical(b)
        assert not a.identical(PMF(6, [0.25, 0.5, 0.25]))

    def test_trim_canonicalises_origin_and_support(self):
        a = PMF(5, [0.25, 0.5, 0.25])
        b = PMF(4, [0.0, 0.25, 0.5, 0.25, 0.0])
        assert b.origin == 5
        assert a.identical(b)

    def test_from_impulses_matches_dense(self):
        a = PMF.from_impulses([3, 5], [0.5, 0.5])
        assert a.identical(PMF(3, [0.5, 0.0, 0.5]))

    def test_generator_input_streams_without_list_roundtrip(self):
        g = PMF(0, (x for x in [0.0, 0.25, 0.25, 0.0]))
        assert g.origin == 1
        assert g.probs.tolist() == [0.25, 0.25]
        assert g.identical(PMF(1, [0.25, 0.25]))

    def test_nested_list_still_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            PMF(0, [[0.1], [0.2]])


class TestEmptySingleton:
    def test_unique_zero_mass_instance(self):
        assert PMF.empty() is EMPTY_PMF
        assert PMF(0, []) is EMPTY_PMF
        assert PMF(99, np.zeros(4)) is EMPTY_PMF

    def test_structural_ops_return_the_singleton(self):
        a = PMF(5, [0.5, 0.5])
        lo, hi = a.split_at(5)
        assert lo is EMPTY_PMF
        assert a.scaled(0.0) is EMPTY_PMF
        assert EMPTY_PMF.convolve(a) is EMPTY_PMF

    def test_empty_is_add_identity(self):
        a = PMF(5, [0.5, 0.5])
        assert a.add(EMPTY_PMF) is a
        assert EMPTY_PMF.add(a) is a

    def test_empty_pickles_to_the_singleton(self):
        assert pickle.loads(pickle.dumps(EMPTY_PMF)) is EMPTY_PMF


class TestSubProbabilityRecombination:
    def test_split_add_recombines_bitwise(self):
        a = PMF(3, [0.125, 0.25, 0.375, 0.25])
        for t in range(2, 9):
            lo, hi = a.split_at(t)
            back = lo.add(hi)
            assert back.identical(a)
            assert back.origin == a.origin
            assert np.array_equal(back.probs, a.probs)

    def test_scaled_halves_recombine_to_original_mass(self):
        a = PMF(3, [0.25, 0.5, 0.25])
        half = a.scaled(0.5)
        both = half.add(half)
        assert both.identical(a) or abs(both.total_mass - 1.0) < 1e-12


class TestConditioningEdges:
    def test_before_support_returns_self(self):
        a = PMF(10, [0.5, 0.25, 0.25])
        assert a.conditional_at_least(10) is a
        assert a.conditional_at_least(3) is a

    def test_at_support_end(self):
        a = PMF(10, [0.5, 0.25, 0.25])
        tail = a.conditional_at_least(a.max_time)
        assert tail.min_time == a.max_time
        assert tail.total_mass == pytest.approx(a.total_mass)

    def test_after_support_end_degenerates_to_delta(self):
        a = PMF(10, [0.5, 0.25, 0.25])
        t = a.max_time + 5
        degenerate = a.conditional_at_least(t)
        assert degenerate.min_time == degenerate.max_time == t
        assert degenerate.total_mass == pytest.approx(a.total_mass)

    def test_after_support_end_subprobability(self):
        sub = PMF(10, [0.25, 0.25])  # total mass 0.5
        degenerate = sub.conditional_at_least(20)
        assert degenerate.min_time == 20
        assert degenerate.total_mass == pytest.approx(0.5)


class TestPickling:
    def test_values_survive_roundtrip(self):
        a = PMF(3, [0.125, 0.25, 0.375, 0.25]).scaled(0.5)
        back = pickle.loads(pickle.dumps(a))
        assert back.identical(a)
        assert not back.probs.flags.writeable

    def test_shared_references_stay_shared(self):
        """Pickle's memo keeps one object per shared PMF, which is what lets
        identity-keyed caches hit on a scenario shipped to a worker."""
        a = PMF(7, [0.5, 0.25, 0.25])
        first, second = pickle.loads(pickle.dumps([a, a]))
        assert first is second
        assert first.identical(a)
