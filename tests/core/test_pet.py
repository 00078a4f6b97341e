"""Unit tests for the PET matrix."""

import numpy as np
import pytest

from repro.core.pet import PETMatrix, PETValidationError
from repro.core.pmf import PMF


def make_pet(task_names=("t0", "t1"), machine_names=("m0", "m1"), means=None):
    """Small helper building a PET matrix of delta PMFs at the given means."""
    if means is None:
        means = [[10, 20], [30, 40]]
    entries = {}
    for i in range(len(task_names)):
        for j in range(len(machine_names)):
            entries[(i, j)] = PMF.delta(int(means[i][j]))
    return PETMatrix(task_names, machine_names, entries)


class TestValidation:
    def test_valid_matrix(self):
        pet = make_pet()
        assert pet.shape == (2, 2)
        assert pet.num_task_types == 2
        assert pet.num_machine_types == 2

    def test_missing_entry(self):
        entries = {(0, 0): PMF.delta(5)}
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), ("m0", "m1"), entries)

    def test_extra_entry(self):
        entries = {(0, 0): PMF.delta(5), (0, 1): PMF.delta(5), (1, 0): PMF.delta(5)}
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), ("m0", "m1"), entries)

    def test_empty_task_types(self):
        with pytest.raises(PETValidationError):
            PETMatrix((), ("m0",), {})

    def test_empty_machine_types(self):
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), (), {})

    def test_non_pmf_entry(self):
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), ("m0",), {(0, 0): 5})

    def test_unnormalised_entry(self):
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), ("m0",), {(0, 0): PMF(1, [0.5])})

    def test_nonpositive_execution_time(self):
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), ("m0",), {(0, 0): PMF.delta(0)})

    def test_empty_pmf_entry(self):
        with pytest.raises(PETValidationError):
            PETMatrix(("t0",), ("m0",), {(0, 0): PMF.empty()})


class TestLookups:
    def test_pmf_lookup(self):
        pet = make_pet()
        assert pet.pmf(0, 1).mean() == pytest.approx(20.0)
        assert pet.pmf(1, 0).mean() == pytest.approx(30.0)

    def test_mean_matrix(self):
        pet = make_pet()
        np.testing.assert_allclose(pet.mean_matrix(), [[10, 20], [30, 40]])

    def test_mean_matrix_is_copy(self):
        pet = make_pet()
        m = pet.mean_matrix()
        m[0, 0] = 999
        assert pet.mean_execution(0, 0) == pytest.approx(10.0)

    def test_task_type_mean(self):
        pet = make_pet()
        assert pet.task_type_mean(0) == pytest.approx(15.0)
        assert pet.task_type_mean(1) == pytest.approx(35.0)

    def test_overall_mean(self):
        pet = make_pet()
        assert pet.overall_mean() == pytest.approx(25.0)


class TestHeterogeneity:
    def test_inconsistent_heterogeneity_detected(self):
        pet = make_pet(means=[[10, 20], [40, 30]])
        assert pet.is_inconsistently_heterogeneous()

    def test_consistent_heterogeneity(self):
        pet = make_pet(means=[[10, 20], [30, 60]])
        assert not pet.is_inconsistently_heterogeneous()

    def test_single_machine_not_inconsistent(self):
        pet = make_pet(task_names=("t0", "t1"), machine_names=("m0",),
                       means=[[10], [20]])
        assert not pet.is_inconsistently_heterogeneous()


class TestConstructionHelpers:
    def test_describe_contains_names(self):
        pet = make_pet()
        text = pet.describe()
        assert "t0" in text and "m0" in text
