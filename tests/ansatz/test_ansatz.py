"""Tests for the ansatz families."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from scipy.linalg import expm

from pauli_oracle import kron_string_matrix
from repro.ansatz import (
    HardwareEfficientAnsatz,
    MultiAngleQAOAAnsatz,
    QAOAAnsatz,
    UCCSDAnsatz,
    append_pauli_rotation,
    pauli_rotation_circuit,
)
from repro.ansatz.ucc import double_excitation_paulis, single_excitation_paulis
from repro.hamiltonians.maxcut import maxcut_minimization_hamiltonian
from repro.quantum.exact import ground_state_energy
from repro.quantum.pauli import PauliOperator, PauliString
from repro.quantum.statevector import Statevector, StatevectorSimulator


class TestPauliRotation:
    @pytest.mark.parametrize("label", ["Z", "XX", "XYZ", "IZI"])
    def test_matches_matrix_exponential(self, label):
        theta = 0.73
        num_qubits = len(label)
        circuit = pauli_rotation_circuit(num_qubits, label, theta)
        state = StatevectorSimulator().run(circuit)
        expected_unitary = expm(-0.5j * theta * kron_string_matrix(label))
        expected = expected_unitary @ Statevector.zero_state(num_qubits).data
        # Global phase may differ; compare up to phase via fidelity.
        fidelity = abs(np.vdot(expected, state.data)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_identity_rotation_is_noop(self):
        circuit = pauli_rotation_circuit(2, "II", 0.5)
        assert len(circuit) == 0

    def test_length_mismatch(self):
        from repro.quantum.circuit import QuantumCircuit

        with pytest.raises(ValueError):
            append_pauli_rotation(QuantumCircuit(2), "XXX", 0.1)


class TestHardwareEfficientAnsatz:
    def test_parameter_count(self):
        ansatz = HardwareEfficientAnsatz(4, num_layers=2)
        # (layers + final) * 2 rotations per qubit
        assert ansatz.num_parameters == (2 + 1) * 2 * 4

    def test_no_final_layer(self):
        ansatz = HardwareEfficientAnsatz(3, num_layers=1, final_rotation_layer=False)
        assert ansatz.num_parameters == 6

    def test_entanglement_patterns(self):
        linear = HardwareEfficientAnsatz(4, num_layers=1, entanglement="linear")
        circular = HardwareEfficientAnsatz(4, num_layers=1, entanglement="circular")
        full = HardwareEfficientAnsatz(4, num_layers=1, entanglement="full")
        assert linear.circuit.two_qubit_gate_count() == 3
        assert circular.circuit.two_qubit_gate_count() == 4
        assert full.circuit.two_qubit_gate_count() == 6
        with pytest.raises(ValueError):
            HardwareEfficientAnsatz(4, entanglement="star")

    def test_initial_bitstring_prepended(self):
        ansatz = HardwareEfficientAnsatz(3, num_layers=1, initial_bitstring="110")
        gates = [inst.gate for inst in ansatz.circuit.instructions[:2]]
        assert gates == ["x", "x"]
        with pytest.raises(ValueError):
            HardwareEfficientAnsatz(3, initial_bitstring="01")

    def test_zero_parameters_keep_computational_basis_state(self):
        # At zero angles the rotations are identities; the CX layer maps the
        # reference bitstring to another (deterministic) basis state.
        ansatz = HardwareEfficientAnsatz(3, num_layers=1, initial_bitstring="101")
        probabilities = ansatz.prepare_state(ansatz.zero_parameters()).probabilities()
        assert np.max(probabilities) == pytest.approx(1.0)
        # The all-zero reference is a CX fixed point and survives exactly.
        zero_reference = HardwareEfficientAnsatz(3, num_layers=1, initial_bitstring="000")
        state = zero_reference.prepare_state(zero_reference.zero_parameters())
        assert abs(state.data[0]) == pytest.approx(1.0)

    def test_bound_circuit_validates_length(self):
        ansatz = HardwareEfficientAnsatz(2, num_layers=1)
        with pytest.raises(ValueError):
            ansatz.bound_circuit(np.zeros(3))

    def test_initial_parameters_random(self):
        ansatz = HardwareEfficientAnsatz(2, num_layers=1)
        values = ansatz.initial_parameters(np.random.default_rng(0))
        assert values.shape == (ansatz.num_parameters,)
        assert np.any(values != 0)

    def test_two_qubit_circular_does_not_duplicate(self):
        ansatz = HardwareEfficientAnsatz(2, num_layers=1, entanglement="circular")
        assert ansatz.circuit.two_qubit_gate_count() == 1


class TestUCCSD:
    def test_excitation_pauli_structure(self):
        singles = single_excitation_paulis(4, 0, 2)
        assert {label for label, _ in singles} == {"YZXI", "XZYI"}
        doubles = double_excitation_paulis(4, (0, 1), (2, 3))
        assert len(doubles) == 8
        for label, sign in doubles:
            assert len(label) == 4
            assert abs(sign) == 0.125

    def test_invalid_excitations(self):
        with pytest.raises(ValueError):
            single_excitation_paulis(4, 1, 1)
        with pytest.raises(ValueError):
            double_excitation_paulis(4, (0, 1), (1, 3))

    def test_parameter_count_h2(self):
        ansatz = UCCSDAnsatz(4, 2)
        # 2 occupied × 2 virtual singles + 1 double
        assert ansatz.num_parameters == 5

    def test_reference_state_at_zero_parameters(self):
        ansatz = UCCSDAnsatz(4, 2)
        state = ansatz.prepare_state(ansatz.zero_parameters())
        assert abs(state.data[int("1100", 2)]) == pytest.approx(1.0)

    def test_particle_number_conserved(self):
        ansatz = UCCSDAnsatz(4, 2)
        rng = np.random.default_rng(5)
        state = ansatz.prepare_state(rng.normal(0, 0.4, ansatz.num_parameters))
        number_operator = PauliOperator(4, {
            PauliString.identity(4): 2.0,
            **{PauliString.from_sparse(4, {q: "Z"}): -0.5 for q in range(4)},
        })
        # <N> = sum_q (1 - <Z_q>)/2 must remain 2 for a particle-conserving ansatz.
        assert state.expectation(number_operator) == pytest.approx(2.0, abs=1e-8)

    def test_invalid_particle_count(self):
        with pytest.raises(ValueError):
            UCCSDAnsatz(4, 0)
        with pytest.raises(ValueError):
            UCCSDAnsatz(4, 4)


class TestQAOA:
    @pytest.fixture
    def triangle_graph(self):
        graph = nx.Graph()
        graph.add_weighted_edges_from([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        return graph

    def test_rejects_non_diagonal_cost(self):
        cost = PauliOperator.from_terms([("XX", 1.0)])
        with pytest.raises(ValueError):
            QAOAAnsatz(cost).circuit

    def test_parameter_counts(self, triangle_graph):
        cost = maxcut_minimization_hamiltonian(triangle_graph)
        standard = QAOAAnsatz(cost, num_layers=2)
        assert standard.num_parameters == 4
        multi = MultiAngleQAOAAnsatz(cost, num_layers=2)
        # 3 clauses + 3 qubits per layer
        assert multi.num_parameters == 12
        assert multi.parameters_per_layer == 6

    def test_plus_state_at_zero_parameters(self, triangle_graph):
        cost = maxcut_minimization_hamiltonian(triangle_graph)
        ansatz = QAOAAnsatz(cost, num_layers=1)
        state = ansatz.prepare_state(ansatz.zero_parameters())
        np.testing.assert_allclose(np.abs(state.data), np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    def test_optimised_qaoa_beats_random_guess(self, triangle_graph):
        cost = maxcut_minimization_hamiltonian(triangle_graph)
        ansatz = QAOAAnsatz(cost, num_layers=1)
        simulator = StatevectorSimulator()
        best = np.inf
        for gamma in np.linspace(0.1, 1.5, 8):
            for beta in np.linspace(-0.7, 0.7, 9):
                value = simulator.expectation(ansatz.bound_circuit([gamma, beta]), cost)
                best = min(best, value)
        random_value = simulator.expectation(ansatz.bound_circuit(ansatz.zero_parameters()), cost)
        assert best < random_value
        assert best >= ground_state_energy(cost) - 1e-9

    def test_ma_qaoa_special_case_matches_standard(self, triangle_graph):
        """ma-QAOA with all angles per layer equal reduces to standard QAOA (§6)."""
        cost = maxcut_minimization_hamiltonian(triangle_graph)
        standard = QAOAAnsatz(cost, num_layers=1)
        multi = MultiAngleQAOAAnsatz(cost, num_layers=1)
        gamma, beta = 0.4, 0.25
        simulator = StatevectorSimulator()
        standard_value = simulator.expectation(standard.bound_circuit([gamma, beta]), cost)
        num_clauses = multi.parameters_per_layer - multi.num_qubits
        multi_params = np.array([gamma] * num_clauses + [beta] * multi.num_qubits)
        multi_value = simulator.expectation(multi.bound_circuit(multi_params), cost)
        assert multi_value == pytest.approx(standard_value, abs=1e-9)
