"""Tests for noise channels, backend profiles and density-matrix simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_oracle import kron_operator_matrix, kron_string_matrix
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density_matrix import (
    DensityMatrix,
    DensityMatrixSimulator,
    apply_channel_to_density_batch,
)
from repro.quantum.noise import (
    BACKEND_PROFILES,
    NoiseModel,
    amplitude_damping_channel,
    bit_flip_channel,
    dephasing_channel,
    depolarizing_channel,
    get_backend_profile,
    global_depolarizing_expectation,
    two_qubit_depolarizing_channel,
)
from repro.quantum.pauli import PauliOperator
from repro.quantum.sampling import DensityMatrixEstimator
from repro.quantum.statevector import Statevector, StatevectorSimulator


class TestChannels:
    @pytest.mark.parametrize(
        "channel",
        [
            depolarizing_channel(0.1),
            amplitude_damping_channel(0.2),
            dephasing_channel(0.15),
            bit_flip_channel(0.3),
            two_qubit_depolarizing_channel(0.05),
        ],
    )
    def test_channels_are_trace_preserving(self, channel):
        assert channel.is_trace_preserving()

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            depolarizing_channel(1.5)
        with pytest.raises(ValueError):
            dephasing_channel(-0.1)

    def test_full_depolarizing_gives_maximally_mixed(self):
        channel = depolarizing_channel(1.0)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = sum(k @ rho @ k.conj().T for k in channel.operators)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


#: Every channel constructor, by its single probability/gamma knob.
_CHANNEL_MAKERS = [
    depolarizing_channel,
    amplitude_damping_channel,
    dephasing_channel,
    bit_flip_channel,
    two_qubit_depolarizing_channel,
]

_probability = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def _random_density_batch(seed: int, num_qubits: int, batch: int) -> np.ndarray:
    """A batch of valid (PSD, unit-trace) random mixed states."""
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    raw = rng.normal(size=(batch, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim))
    rhos = raw @ np.conj(np.swapaxes(raw, 1, 2))
    traces = np.trace(rhos, axis1=1, axis2=2).real
    return rhos / traces[:, None, None]


class TestChannelProperties:
    """Property-based guarantees over the whole channel-parameter space."""

    @pytest.mark.parametrize("maker", _CHANNEL_MAKERS)
    @settings(max_examples=50, deadline=None)
    @given(probability=_probability)
    def test_every_constructor_is_trace_preserving(self, maker, probability):
        assert maker(probability).is_trace_preserving()

    @settings(max_examples=30, deadline=None)
    @given(probability=_probability, seed=st.integers(0, 2**31 - 1))
    def test_superoperator_matches_kraus_sum(self, probability, seed):
        # The cached superoperator (the batched path's channel form) applies
        # the identical CPTP map as the explicit Σ K ρ K† definition.
        channel = depolarizing_channel(probability)
        rho = _random_density_batch(seed, num_qubits=1, batch=1)[0]
        explicit = sum(k @ rho @ k.conj().T for k in channel.operators)
        via_superop = (channel.superoperator() @ rho.reshape(-1)).reshape(2, 2)
        np.testing.assert_allclose(via_superop, explicit, atol=1e-12)

    @pytest.mark.parametrize("maker", _CHANNEL_MAKERS)
    @settings(max_examples=25, deadline=None)
    @given(probability=_probability, seed=st.integers(0, 2**31 - 1))
    def test_batched_application_preserves_physicality(self, maker, probability, seed):
        # Batch-wide channel application keeps every slice a valid mixed
        # state: unit trace, Hermitian, purity within [1/2^n, 1].
        channel = maker(probability)
        num_qubits = 2
        batch = 3
        rhos = _random_density_batch(seed, num_qubits, batch)
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        qubits = (0, 1) if channel.num_qubits == 2 else (1,)
        out = apply_channel_to_density_batch(
            tensor, channel.superoperator(), qubits, num_qubits
        ).reshape(batch, 4, 4)
        for rho in out:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-10)
            purity = float(np.trace(rho @ rho).real)
            assert 1.0 / 2 ** num_qubits - 1e-10 <= purity <= 1.0 + 1e-10

    def test_is_noiseless_short_circuits_channel_application(self):
        model = NoiseModel()
        assert model.is_noiseless
        assert model.single_qubit_channels() == []
        assert model.two_qubit_channels() == []
        # A noiseless simulation therefore applies only the unitaries: the
        # prepared state stays exactly pure.
        circuit = QuantumCircuit(2).h(0).cx(0, 1).ry(0.4, 1)
        rho = DensityMatrixSimulator(model).run(circuit)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_backend_profile_lists_available_names(self):
        with pytest.raises(ValueError, match="auckland.*cairo.*hanoi.*kolkata.*mumbai"):
            get_backend_profile("brisbane")


class TestNoiseModel:
    def test_noiseless_flag(self):
        assert NoiseModel().is_noiseless
        assert not NoiseModel(single_qubit_error=0.01).is_noiseless

    def test_channel_lists(self):
        model = NoiseModel(single_qubit_error=0.01, two_qubit_error=0.02, dephasing=0.001)
        assert len(model.single_qubit_channels()) == 2
        assert len(model.two_qubit_channels()) == 1

    def test_backend_profiles(self):
        assert set(BACKEND_PROFILES) == {"hanoi", "cairo", "mumbai", "kolkata", "auckland"}
        profile = get_backend_profile("Cairo")
        model = profile.to_noise_model()
        assert model.name == "cairo"
        assert 0 < model.two_qubit_error < 0.1
        with pytest.raises(ValueError):
            get_backend_profile("unknown")

    def test_global_depolarizing_expectation(self):
        assert global_depolarizing_expectation(1.0, 0.0, layers=0, error_rate=0.1) == 1.0
        contracted = global_depolarizing_expectation(1.0, 0.0, layers=3, error_rate=0.1)
        assert contracted == pytest.approx(0.9 ** 3)
        with pytest.raises(ValueError):
            global_depolarizing_expectation(1.0, 0.0, layers=-1, error_rate=0.1)


class TestDensityMatrix:
    def test_zero_state_and_purity(self):
        rho = DensityMatrix.zero_state(2)
        assert rho.trace() == pytest.approx(1.0)
        assert rho.purity() == pytest.approx(1.0)

    def test_from_statevector(self, bell_state):
        rho = DensityMatrix.from_statevector(bell_state)
        assert rho.purity() == pytest.approx(1.0)
        assert rho.fidelity_with_pure(bell_state) == pytest.approx(1.0)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((3, 3)))

    def test_noiseless_simulation_matches_statevector(self, small_hamiltonian):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).ry(0.3, 1)
        dm_value = DensityMatrixSimulator().expectation(circuit, small_hamiltonian)
        sv_value = StatevectorSimulator().run(circuit).expectation(small_hamiltonian)
        assert dm_value == pytest.approx(sv_value)

    def test_noise_reduces_purity_and_contracts_expectation(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        operator = PauliOperator.from_terms([("ZZ", 1.0)])
        noisy = DensityMatrixSimulator(NoiseModel(single_qubit_error=0.05, two_qubit_error=0.05))
        rho = noisy.run(circuit)
        assert rho.purity() < 0.999
        assert abs(noisy.expectation(circuit, operator)) < 1.0
        assert rho.trace() == pytest.approx(1.0)

    def test_readout_error_contracts_z_terms(self):
        circuit = QuantumCircuit(1).x(0)
        operator = PauliOperator.from_terms([("Z", 1.0)])
        simulator = DensityMatrixSimulator(NoiseModel(readout_error=0.1))
        value = simulator.expectation(circuit, operator)
        assert value == pytest.approx(-(1 - 2 * 0.1))

    def test_expectation_matches_trace_against_kron_oracle(self):
        rng = np.random.default_rng(5)
        amplitudes = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        rho = amplitudes @ amplitudes.conj().T
        rho /= np.trace(rho)
        operator = PauliOperator.from_terms(
            [("XYZ", 0.7), ("IZZ", -1.2), ("YYI", 0.4), ("III", 0.9), ("ZXY", 0.0)]
        )
        oracle = np.trace(rho @ kron_operator_matrix(operator)).real
        assert DensityMatrix(rho).expectation(operator) == pytest.approx(oracle, abs=1e-12)
        p = 0.07
        folded = 0.9 + sum(
            coeff.real * (1 - 2 * p) ** pauli.weight
            * np.trace(rho @ kron_string_matrix(pauli)).real
            for pauli, coeff in operator.items()
            if not pauli.is_identity
        )
        simulator = DensityMatrixSimulator(NoiseModel(readout_error=p))
        value = simulator.expectation(QuantumCircuit(3), operator, DensityMatrix(rho))
        assert value == pytest.approx(folded, abs=1e-12)

    def test_unbound_circuit_rejected(self):
        from repro.quantum.circuit import Parameter

        circuit = QuantumCircuit(1).ry(Parameter("t"), 0)
        with pytest.raises(ValueError):
            DensityMatrixSimulator().run(circuit)

    def test_qubit_limit(self):
        with pytest.raises(ValueError):
            DensityMatrixSimulator().run(QuantumCircuit(13).h(0))


class TestDensityMatrixEstimator:
    def test_matches_exact_when_noiseless(self, small_hamiltonian):
        circuit = QuantumCircuit(2).ry(0.7, 0).cx(0, 1)
        estimator = DensityMatrixEstimator(NoiseModel(), shots_per_term=10)
        value = estimator.estimate(circuit, small_hamiltonian).value
        expected = StatevectorSimulator().run(circuit).expectation(small_hamiltonian)
        assert value == pytest.approx(expected)
        assert estimator.total_evaluations == 1

    def test_accepts_initial_state(self, small_hamiltonian):
        circuit = QuantumCircuit(2).ry(0.2, 0)
        initial = Statevector.computational_basis(2, "11")
        estimator = DensityMatrixEstimator(NoiseModel(), shots_per_term=10)
        value = estimator.estimate(circuit, small_hamiltonian, initial).value
        expected = initial.evolve(circuit).expectation(small_hamiltonian)
        assert value == pytest.approx(expected)

    def test_noise_changes_value(self, small_hamiltonian):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        clean = DensityMatrixEstimator(NoiseModel(), shots_per_term=10)
        noisy = DensityMatrixEstimator(
            NoiseModel(single_qubit_error=0.05, two_qubit_error=0.08), shots_per_term=10
        )
        assert abs(noisy.estimate(circuit, small_hamiltonian).value) < abs(
            clean.estimate(circuit, small_hamiltonian).value
        )
