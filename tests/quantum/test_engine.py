"""Parity tests: the compiled engine must match the naive per-term path."""

from __future__ import annotations

import numpy as np
import pytest

from pauli_oracle import kron_operator_matrix, kron_string_matrix
from repro.quantum import QuantumCircuit
from repro.quantum import engine as engine_module
from repro.quantum.engine import CompiledPauliOperator, compiled_pauli_operator, pauli_evaluator
from repro.quantum.pauli import PAULI_LABELS, PauliOperator
from repro.quantum.statevector import Statevector


def random_state(num_qubits: int, rng: np.random.Generator) -> Statevector:
    amplitudes = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return Statevector(amplitudes / np.linalg.norm(amplitudes))


def random_operator(
    num_qubits: int, num_terms: int, rng: np.random.Generator
) -> PauliOperator:
    labels = set()
    while len(labels) < num_terms:
        labels.add("".join(rng.choice(list(PAULI_LABELS), size=num_qubits)))
    coefficients = rng.normal(size=num_terms)
    return PauliOperator(num_qubits, dict(zip(sorted(labels), coefficients)))


class TestEngineParity:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 6, 8])
    def test_matches_naive_pauli_expectation(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for _ in range(3):
            operator = random_operator(num_qubits, min(12, 4 ** num_qubits), rng)
            state = random_state(num_qubits, rng)
            engine = compiled_pauli_operator(operator)
            vector = engine.expectation_values(state)
            naive = np.array([state.pauli_expectation(p) for p in engine.paulis])
            np.testing.assert_allclose(vector, naive, atol=1e-10)

    @pytest.mark.parametrize(
        "label", ["X", "Y", "Z", "I", "XY", "YZ", "ZI", "YY", "XYZ", "ZYX", "III"]
    )
    def test_single_term_matches_dense_matrix(self, label):
        rng = np.random.default_rng(hash(label) % 2 ** 32)
        state = random_state(len(label), rng)
        engine = CompiledPauliOperator([label])
        expected = np.vdot(state.data, kron_string_matrix(label) @ state.data).real
        assert engine.expectation_values(state)[0] == pytest.approx(expected, abs=1e-10)

    def test_matches_dense_operator_expectation(self):
        rng = np.random.default_rng(9)
        operator = random_operator(4, 20, rng)
        state = random_state(4, rng)
        engine = compiled_pauli_operator(operator)
        dense = np.vdot(state.data, kron_operator_matrix(operator) @ state.data).real
        assert engine.expectation(state) == pytest.approx(dense, abs=1e-10)
        assert state.expectation(operator) == pytest.approx(dense, abs=1e-10)

    def test_density_path_matches_statevector_path(self):
        rng = np.random.default_rng(11)
        operator = random_operator(3, 15, rng)
        state = random_state(3, rng)
        engine = compiled_pauli_operator(operator)
        rho = np.outer(state.data, state.data.conj())
        np.testing.assert_allclose(
            engine.expectation_values_density(rho),
            engine.expectation_values(state),
            atol=1e-10,
        )

    def test_batched_matches_single(self):
        rng = np.random.default_rng(13)
        operator = random_operator(4, 10, rng)
        engine = compiled_pauli_operator(operator)
        states = [random_state(4, rng) for _ in range(5)]
        batch = engine.expectation_values_batch(states)
        assert batch.shape == (5, engine.num_terms)
        for row, state in zip(batch, states):
            np.testing.assert_allclose(row, engine.expectation_values(state), atol=1e-12)

    def test_identity_term_is_one_on_normalized_states(self):
        rng = np.random.default_rng(17)
        engine = CompiledPauliOperator(["II", "ZZ"])
        state = random_state(2, rng)
        values = engine.expectation_values(state)
        assert values[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(engine.identity_mask, [True, False])
        np.testing.assert_array_equal(engine.weights, [0, 2])


class TestPerTermFallback:
    def test_matches_compiled_engine(self, monkeypatch):
        rng = np.random.default_rng(21)
        operator = random_operator(4, 12, rng)
        coefficients = [operator.coefficient(p) for p in operator.paulis()]
        state = random_state(4, rng)
        compiled = pauli_evaluator(operator.paulis(), coefficients)
        monkeypatch.setattr(engine_module, "_MAX_COMPILED_ELEMENTS", 0)
        fallback = pauli_evaluator(operator.paulis(), coefficients)
        assert isinstance(fallback, engine_module._PerTermPauliEvaluator)
        np.testing.assert_allclose(
            fallback.expectation_values(state), compiled.expectation_values(state), atol=1e-12
        )
        rho = np.outer(state.data, state.data.conj())
        np.testing.assert_allclose(
            fallback.expectation_values_density(rho),
            compiled.expectation_values_density(rho),
            atol=1e-12,
        )
        np.testing.assert_array_equal(fallback.weights, compiled.weights)
        assert fallback.num_measured_terms == compiled.num_measured_terms


class TestEngineApi:
    def test_term_order_follows_operator_insertion_order(self):
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XI", 0.5), ("IY", -0.25)])
        engine = compiled_pauli_operator(operator)
        assert [p.label for p in engine.paulis] == ["ZZ", "XI", "IY"]
        np.testing.assert_allclose(engine.coefficients, [1.0, 0.5, -0.25])

    def test_zero_coefficient_terms_are_compiled(self):
        operator = PauliOperator(2, {"ZZ": 0.0, "XX": 1.0})
        engine = compiled_pauli_operator(operator)
        assert engine.num_terms == 2
        state = Statevector.zero_state(2)
        assert engine.expectation_values(state)[0] == pytest.approx(1.0)  # <00|ZZ|00>

    def test_cache_reuses_and_invalidates(self):
        operator = PauliOperator.from_terms([("ZZ", 1.0), ("XX", 0.5)])
        engine = compiled_pauli_operator(operator)
        assert compiled_pauli_operator(operator) is engine
        operator.chop(0.6)  # in-place mutation drops the XX term
        recompiled = compiled_pauli_operator(operator)
        assert recompiled is not engine
        assert recompiled.num_terms == 1

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            CompiledPauliOperator([])  # no num_qubits
        with pytest.raises(ValueError):
            CompiledPauliOperator(["XI", "X"])  # mismatched qubit counts
        with pytest.raises(ValueError):
            CompiledPauliOperator(["XX"], coefficients=[1.0, 2.0])
        engine = CompiledPauliOperator(["XX"])
        with pytest.raises(ValueError):
            engine.expectation_values(np.ones(8))  # wrong dimension
        with pytest.raises(ValueError):
            engine.expectation_values_density(np.ones((2, 2)))

    def test_empty_engine(self):
        engine = CompiledPauliOperator([], num_qubits=2)
        assert engine.num_terms == 0
        assert engine.expectation_values(Statevector.zero_state(2)).shape == (0,)
        assert engine.expectation(Statevector.zero_state(2)) == 0.0

    def test_estimator_term_vector_alignment(self):
        # The estimator contract: term_vector follows the operator's order.
        from repro.quantum.sampling import ExactEstimator

        operator = PauliOperator.from_terms([("ZZ", 0.7), ("XI", -0.4), ("II", 0.5)])
        circuit = QuantumCircuit(2).ry(0.3, 0).cx(0, 1)
        result = ExactEstimator().estimate(circuit, operator)
        assert result.term_basis == compiled_pauli_operator(operator).paulis
        state = Statevector.zero_state(2).evolve(circuit)
        for pauli, value in zip(result.term_basis, result.term_vector):
            assert value == pytest.approx(state.pauli_expectation(pauli), abs=1e-10)
        assert result.value == pytest.approx(
            sum(c.real * v for c, v in zip([0.7, -0.4, 0.5], result.term_vector))
        )
