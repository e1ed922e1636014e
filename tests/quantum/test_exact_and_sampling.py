"""Tests for exact ground-state solvers and the expectation estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hamiltonians.spin import transverse_field_ising_chain
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.exact import ground_state, ground_state_energy, pauli_to_sparse
from repro.quantum.pauli import PauliOperator
from repro.quantum.sampling import (
    ExactEstimator,
    SamplingEstimator,
    ShotNoiseEstimator,
)


class TestGroundState:
    def test_single_qubit_z(self):
        operator = PauliOperator.from_terms([("Z", 1.0)])
        result = ground_state(operator, compute_gap=True)
        assert result.energy == pytest.approx(-1.0)
        assert result.gap == pytest.approx(2.0)
        assert abs(result.statevector.data[1]) == pytest.approx(1.0)

    def test_bell_hamiltonian(self):
        operator = PauliOperator.from_terms([("XX", -1.0), ("ZZ", -1.0)])
        result = ground_state(operator)
        assert result.energy == pytest.approx(-2.0)

    def test_matches_dense_eigenvalue(self, rng):
        operator = transverse_field_ising_chain(4, 0.7)
        dense = np.linalg.eigvalsh(operator.to_matrix())[0]
        assert ground_state_energy(operator) == pytest.approx(dense)

    def test_sparse_path_matches_dense(self):
        # 11 qubits forces the sparse Lanczos branch; compare on 6 qubits by
        # monkey-patching the threshold instead would be invasive, so compare
        # sparse matrix construction directly.
        operator = transverse_field_ising_chain(6, 1.1)
        sparse = pauli_to_sparse(operator).toarray()
        np.testing.assert_allclose(sparse, operator.to_matrix(), atol=1e-12)

    def test_large_sparse_ground_state(self):
        operator = transverse_field_ising_chain(11, 1.0)
        result = ground_state(operator)
        # TFIM at criticality: ground energy per site approaches -4/pi ≈ -1.27;
        # open 11-site chain should be in a sane range.
        assert -2.0 * 11 < result.energy < -1.0 * 11

    def test_sparse_ground_state_matches_free_fermion_energy(self):
        # The open TFIM -J sum ZZ - h sum X maps to free fermions whose
        # single-particle energies are twice the singular values of the
        # bidiagonal matrix with h on the diagonal and J above it.
        sites, field, coupling = 12, 0.9, 1.0
        bidiagonal = np.diag(np.full(sites, field)) + np.diag(np.full(sites - 1, coupling), 1)
        closed_form = -float(np.linalg.svd(bidiagonal, compute_uv=False).sum())
        result = ground_state(transverse_field_ising_chain(sites, field, coupling))
        assert abs(result.energy - closed_form) <= 1e-9

    def test_non_hermitian_rejected(self):
        operator = PauliOperator.from_terms([("X", 1.0j)])
        with pytest.raises(ValueError):
            ground_state(operator)

    def test_empty_operator(self):
        result = ground_state(PauliOperator.zero(2), compute_gap=True)
        assert result.energy == 0.0

    def test_gap_positive_for_gapped_model(self):
        operator = transverse_field_ising_chain(4, 0.2)
        result = ground_state(operator, compute_gap=True)
        assert result.gap is not None and result.gap >= 0


class TestEstimators:
    @pytest.fixture
    def circuit(self):
        return QuantumCircuit(3).ry(0.4, 0).cx(0, 1).ry(0.8, 1).cx(1, 2).rz(0.3, 2)

    @pytest.fixture
    def operator(self):
        return PauliOperator.from_terms([("ZZI", 0.7), ("IXX", -0.4), ("ZIZ", 1.1), ("III", 0.5)])

    def test_exact_estimator_matches_statevector(self, circuit, operator):
        estimator = ExactEstimator(shots_per_term=100)
        result = estimator.estimate(circuit, operator)
        from repro.quantum.statevector import StatevectorSimulator

        expected = StatevectorSimulator().run(circuit).expectation(operator)
        assert result.value == pytest.approx(expected)
        # 3 non-identity terms × 100 shots
        assert result.shots_used == 300
        assert estimator.total_shots == 300
        assert estimator.total_evaluations == 1

    def test_exact_estimator_term_values(self, circuit, operator):
        result = ExactEstimator().estimate(circuit, operator)
        assert len(result.term_values) == 4
        recombined = sum(
            coeff.real * result.term_values[pauli] for pauli, coeff in operator.items()
        )
        assert recombined == pytest.approx(result.value)

    def test_shot_noise_estimator_converges_with_shots(self, circuit, operator):
        exact = ExactEstimator().estimate(circuit, operator).value
        noisy_small = ShotNoiseEstimator(shots_per_term=16, seed=0)
        noisy_large = ShotNoiseEstimator(shots_per_term=65536, seed=0)
        small_errors = [
            abs(noisy_small.estimate(circuit, operator).value - exact) for _ in range(20)
        ]
        large_errors = [
            abs(noisy_large.estimate(circuit, operator).value - exact) for _ in range(20)
        ]
        assert np.mean(large_errors) < np.mean(small_errors)

    def test_shot_noise_variance_reported(self, circuit, operator):
        result = ShotNoiseEstimator(shots_per_term=128, seed=1).estimate(circuit, operator)
        assert result.variance > 0

    def test_sampling_estimator_close_to_exact(self, circuit, operator):
        exact = ExactEstimator().estimate(circuit, operator).value
        sampled = SamplingEstimator(shots_per_term=20000, seed=3).estimate(circuit, operator)
        assert sampled.value == pytest.approx(exact, abs=0.1)

    def test_invalid_shots_per_term(self):
        with pytest.raises(ValueError):
            ExactEstimator(shots_per_term=0)

    def test_estimate_state_interface(self, operator):
        from repro.quantum.statevector import Statevector

        estimator = ExactEstimator()
        value = estimator.estimate_state(Statevector.zero_state(3), operator).value
        # On |000>: ZZI=1, ZIZ=1, IXX=0, III=1 → 0.7 + 1.1 + 0.5
        assert value == pytest.approx(2.3)
