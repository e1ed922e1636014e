"""Tests for the statevector simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_oracle import kron_operator_matrix, kron_string_matrix
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector, StatevectorSimulator, apply_pauli_string


class TestStatevectorBasics:
    def test_zero_state(self):
        state = Statevector.zero_state(3)
        assert state.num_qubits == 3
        assert state.data[0] == 1.0
        assert state.norm() == pytest.approx(1.0)

    def test_computational_basis_from_string_and_int(self):
        state = Statevector.computational_basis(3, "010")
        assert state.data[2] == 1.0
        state2 = Statevector.computational_basis(3, 5)
        assert state2.data[5] == 1.0
        with pytest.raises(ValueError):
            Statevector.computational_basis(2, "000")
        with pytest.raises(ValueError):
            Statevector.computational_basis(2, 7)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Statevector(np.ones(3))

    def test_normalized(self):
        state = Statevector(np.array([3.0, 4.0, 0.0, 0.0]))
        assert state.normalized().norm() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            Statevector(np.zeros(2)).normalized()

    def test_overlap_and_fidelity(self):
        zero = Statevector.zero_state(1)
        one = Statevector.computational_basis(1, "1")
        assert zero.overlap(one) == 0
        assert zero.fidelity(zero) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            zero.overlap(Statevector.zero_state(2))


class TestEvolution:
    def test_x_gate_flips(self):
        state = Statevector.zero_state(1).evolve(QuantumCircuit(1).x(0))
        assert abs(state.data[1]) == pytest.approx(1.0)

    def test_bell_state(self, bell_state):
        np.testing.assert_allclose(
            np.abs(bell_state.data), [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12
        )

    def test_qubit_ordering_msb(self):
        # X on qubit 0 should set the most significant bit.
        state = Statevector.zero_state(2).evolve(QuantumCircuit(2).x(0))
        assert abs(state.data[2]) == pytest.approx(1.0)

    def test_unbound_circuit_rejected(self):
        from repro.quantum.circuit import Parameter

        circuit = QuantumCircuit(1).ry(Parameter("t"), 0)
        with pytest.raises(ValueError):
            Statevector.zero_state(1).evolve(circuit)

    def test_mismatched_qubits_rejected(self):
        with pytest.raises(ValueError):
            Statevector.zero_state(2).evolve(QuantumCircuit(3).h(0))

    def test_circuit_matches_dense_matrix_product(self, rng):
        circuit = QuantumCircuit(3)
        circuit.ry(0.4, 0).rz(0.9, 1).cx(0, 1).rx(1.2, 2).cx(1, 2).h(0)
        state = Statevector.zero_state(3).evolve(circuit)
        # Build the same unitary densely.
        from repro.quantum.gates import gate_matrix

        dense = np.eye(8, dtype=complex)
        for inst in circuit.instructions:
            matrix = gate_matrix(inst.gate, *inst.params)
            full = _embed_dense(matrix, inst.qubits, 3)
            dense = full @ dense
        expected = dense @ Statevector.zero_state(3).data
        np.testing.assert_allclose(state.data, expected, atol=1e-10)

    def test_norm_preserved(self, rng):
        circuit = QuantumCircuit(4)
        for _ in range(10):
            circuit.ry(rng.normal(), int(rng.integers(4)))
            a, b = rng.choice(4, size=2, replace=False)
            circuit.cx(int(a), int(b))
        state = Statevector.zero_state(4).evolve(circuit)
        assert state.norm() == pytest.approx(1.0)


def _embed_dense(matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Reference embedding used to validate the tensor-contraction path."""
    identity = np.eye(2 ** num_qubits, dtype=complex)
    tensor = identity.reshape((2,) * (2 * num_qubits))
    k = len(qubits)
    gate_tensor = matrix.reshape((2,) * (2 * k))
    tensor = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    tensor = np.moveaxis(tensor, list(range(k)), list(qubits))
    return tensor.reshape(2 ** num_qubits, 2 ** num_qubits)


class TestPauliApplication:
    def test_apply_pauli_matches_matrix(self, rng):
        for label in ("XIZ", "YYI", "ZXY", "III"):
            state = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = state / np.linalg.norm(state)
            tensor = state.reshape(2, 2, 2)
            applied = apply_pauli_string(tensor, label).ravel()
            expected = kron_string_matrix(label) @ state
            np.testing.assert_allclose(applied, expected, atol=1e-12)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_pauli_string(np.zeros((2, 2)), "XXX")

    def test_expectation_of_z_on_zero(self):
        state = Statevector.zero_state(2)
        assert state.pauli_expectation("ZI") == pytest.approx(1.0)
        assert state.pauli_expectation("XI") == pytest.approx(0.0)

    def test_expectation_matches_dense(self, rng, small_hamiltonian):
        data = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = Statevector(data / np.linalg.norm(data))
        dense = kron_operator_matrix(small_hamiltonian)
        expected = float(np.real(state.data.conj() @ dense @ state.data))
        assert state.expectation(small_hamiltonian) == pytest.approx(expected)

    @given(st.integers(0, 3))
    @settings(max_examples=8, deadline=None)
    def test_single_qubit_z_expectation_on_basis_states(self, index):
        state = Statevector.computational_basis(2, index)
        bits = format(index, "02b")
        for qubit in range(2):
            expected = 1.0 if bits[qubit] == "0" else -1.0
            label = "".join("Z" if q == qubit else "I" for q in range(2))
            assert state.pauli_expectation(label) == pytest.approx(expected)


class TestSamplingAndSimulator:
    def test_sample_counts_distribution(self, bell_state, rng):
        counts = bell_state.sample_counts(2000, rng)
        assert set(counts) <= {"00", "11"}
        assert sum(counts.values()) == 2000
        assert abs(counts.get("00", 0) - 1000) < 150

    def test_sample_counts_validates_shots(self, bell_state, rng):
        with pytest.raises(ValueError):
            bell_state.sample_counts(0, rng)

    def test_sample_counts_requires_explicit_rng(self, bell_state):
        with pytest.raises(TypeError, match="explicit np.random.Generator"):
            bell_state.sample_counts(10, None)

    def test_simulator_counts_runs(self):
        simulator = StatevectorSimulator()
        simulator.run(QuantumCircuit(1).h(0))
        simulator.run(QuantumCircuit(1).x(0))
        assert simulator.circuits_run == 2

    def test_simulator_expectation(self, small_hamiltonian):
        simulator = StatevectorSimulator()
        value = simulator.expectation(QuantumCircuit(2).h(0).cx(0, 1), small_hamiltonian)
        assert value == pytest.approx(1.0)
