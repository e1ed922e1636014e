"""Noise channels and synthetic backend calibration profiles.

The paper's noisy studies (§7.4, §8.4, §8.7) use Qiskit density-matrix
simulation with device-calibrated noise models for five IBM backends, plus a
simple depolarising layer for the large-scale Pauli-propagation experiments.
Neither the devices nor their calibration data are available offline, so this
module provides:

* Kraus-operator noise channels (depolarising, amplitude damping, dephasing,
  bit-flip) consumed by :mod:`repro.quantum.density_matrix`;
* :class:`BackendNoiseProfile` — synthetic per-"backend" calibration profiles
  (1q/2q depolarising rates, readout error, T1/T2-derived dephasing) whose
  relative ordering mirrors publicly reported error rates of the Hanoi, Cairo,
  Mumbai, Kolkata and Auckland devices (Table 2 analogues);
* an analytic global-depolarising expectation correction used with the
  Pauli-propagation simulator (Fig. 9 noisy bars).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, pauli_matrix

__all__ = [
    "KrausChannel",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "dephasing_channel",
    "bit_flip_channel",
    "two_qubit_depolarizing_channel",
    "NoiseModel",
    "BackendNoiseProfile",
    "BACKEND_PROFILES",
    "get_backend_profile",
    "global_depolarizing_expectation",
]

_I, _X, _Y, _Z = (pauli_matrix(label) for label in "IXYZ")


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by its Kraus operators."""

    name: str
    operators: tuple[np.ndarray, ...]
    num_qubits: int

    def is_trace_preserving(self, tolerance: float = 1e-9) -> bool:
        """Check Σ K†K = I."""
        dim = 2 ** self.num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for kraus in self.operators:
            total += kraus.conj().T @ kraus
        return bool(np.allclose(total, np.eye(dim), atol=tolerance))

    def superoperator(self) -> np.ndarray:
        """``Σ_k K ⊗ conj(K)`` — the channel as one matrix on vectorised ρ.

        Acting on the flattened (row ⊗ column) index of the target qubits,
        one matrix product applies the whole channel at once — the form the
        density-matrix kernels use to apply a channel to an entire execution
        batch in a single stacked GEMM instead of one pair of matrix
        products per Kraus operator.  Computed once per channel instance and
        cached; treat the returned array as read-only.
        """
        cached = self.__dict__.get("_superoperator")
        if cached is None:
            dim = (2 ** self.num_qubits) ** 2
            cached = np.zeros((dim, dim), dtype=complex)
            for kraus in self.operators:
                cached += np.kron(kraus, kraus.conj())
            object.__setattr__(self, "_superoperator", cached)
        return cached


def depolarizing_channel(probability: float) -> KrausChannel:
    """Single-qubit depolarising channel with error probability ``probability``."""
    _validate_probability(probability)
    p = probability
    operators = (
        np.sqrt(1 - 3 * p / 4) * _I,
        np.sqrt(p / 4) * _X,
        np.sqrt(p / 4) * _Y,
        np.sqrt(p / 4) * _Z,
    )
    return KrausChannel("depolarizing", operators, 1)


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Amplitude damping (T1 relaxation) with damping rate ``gamma``."""
    _validate_probability(gamma)
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel("amplitude_damping", (k0, k1), 1)


def dephasing_channel(probability: float) -> KrausChannel:
    """Pure dephasing (T2) channel."""
    _validate_probability(probability)
    operators = (np.sqrt(1 - probability) * _I, np.sqrt(probability) * _Z)
    return KrausChannel("dephasing", operators, 1)


def bit_flip_channel(probability: float) -> KrausChannel:
    """Bit-flip channel."""
    _validate_probability(probability)
    operators = (np.sqrt(1 - probability) * _I, np.sqrt(probability) * _X)
    return KrausChannel("bit_flip", operators, 1)


def two_qubit_depolarizing_channel(probability: float) -> KrausChannel:
    """Two-qubit depolarising channel (uniform over the 15 non-identity Paulis)."""
    _validate_probability(probability)
    p = probability
    operators = []
    for left in "IXYZ":
        for right in "IXYZ":
            weight = 1 - 15 * p / 16 if left + right == "II" else p / 16
            operators.append(np.sqrt(weight) * PauliString(left + right).to_matrix())
    return KrausChannel("two_qubit_depolarizing", tuple(operators), 2)


def _validate_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {probability}")


@dataclass
class NoiseModel:
    """Gate-attached noise: channels applied after every 1q / 2q gate.

    ``readout_error`` is the symmetric probability of flipping a measured bit.
    """

    single_qubit_error: float = 0.0
    two_qubit_error: float = 0.0
    readout_error: float = 0.0
    dephasing: float = 0.0
    amplitude_damping: float = 0.0
    name: str = "custom"

    def single_qubit_channels(self) -> list[KrausChannel]:
        """Channels applied after every single-qubit gate."""
        channels = []
        if self.single_qubit_error > 0:
            channels.append(depolarizing_channel(self.single_qubit_error))
        if self.dephasing > 0:
            channels.append(dephasing_channel(self.dephasing))
        if self.amplitude_damping > 0:
            channels.append(amplitude_damping_channel(self.amplitude_damping))
        return channels

    def two_qubit_channels(self) -> list[KrausChannel]:
        """Channels applied after every two-qubit gate (per qubit depolarising pair)."""
        channels = []
        if self.two_qubit_error > 0:
            channels.append(two_qubit_depolarizing_channel(self.two_qubit_error))
        return channels

    @property
    def is_noiseless(self) -> bool:
        return (
            self.single_qubit_error == 0
            and self.two_qubit_error == 0
            and self.readout_error == 0
            and self.dephasing == 0
            and self.amplitude_damping == 0
        )


@dataclass(frozen=True)
class BackendNoiseProfile:
    """A synthetic stand-in for one IBM backend's calibration data (Table 2)."""

    name: str
    single_qubit_error: float
    two_qubit_error: float
    readout_error: float
    t1_us: float
    t2_us: float

    def to_noise_model(self, gate_time_us: float = 0.05) -> NoiseModel:
        """Convert the calibration numbers into a :class:`NoiseModel`.

        Decoherence during one gate of duration ``gate_time_us`` is folded
        into amplitude-damping and dephasing probabilities.
        """
        gamma = 1.0 - float(np.exp(-gate_time_us / self.t1_us))
        dephase = 1.0 - float(np.exp(-gate_time_us / self.t2_us))
        return NoiseModel(
            single_qubit_error=self.single_qubit_error,
            two_qubit_error=self.two_qubit_error,
            readout_error=self.readout_error,
            dephasing=dephase,
            amplitude_damping=gamma,
            name=self.name,
        )


# Relative error magnitudes chosen so the fidelity ordering of Table 2
# (Cairo/Hanoi best, Kolkata/Auckland worst) is reproduced.
BACKEND_PROFILES: dict[str, BackendNoiseProfile] = {
    "hanoi": BackendNoiseProfile("hanoi", 3.0e-4, 8.0e-3, 1.2e-2, 180.0, 150.0),
    "cairo": BackendNoiseProfile("cairo", 2.5e-4, 7.0e-3, 1.0e-2, 190.0, 160.0),
    "mumbai": BackendNoiseProfile("mumbai", 5.0e-4, 1.2e-2, 2.0e-2, 140.0, 110.0),
    "kolkata": BackendNoiseProfile("kolkata", 7.0e-4, 1.6e-2, 2.8e-2, 110.0, 90.0),
    "auckland": BackendNoiseProfile("auckland", 6.0e-4, 1.4e-2, 2.4e-2, 120.0, 100.0),
}


def get_backend_profile(name: str) -> BackendNoiseProfile:
    """Look up a synthetic backend profile by (case-insensitive) name."""
    try:
        return BACKEND_PROFILES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(BACKEND_PROFILES))
        raise ValueError(f"unknown backend {name!r}; known backends: {known}") from None


def global_depolarizing_expectation(
    exact_value: float,
    identity_value: float,
    layers: int,
    error_rate: float,
) -> float:
    """Expectation value after ``layers`` global depolarising layers.

    A global depolarising channel with rate p maps rho to
    ``(1-p) rho + p I/2^n``; expectation values therefore contract toward the
    maximally mixed value.  Used for the noisy large-scale bars of Fig. 9,
    mirroring the depolarising layer of [54] in the paper.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    _validate_probability(error_rate)
    survival = (1.0 - error_rate) ** layers
    return survival * exact_value + (1.0 - survival) * identity_value
