"""Density-matrix simulation with gate-attached noise, sequential and batched.

Replaces Qiskit's density-matrix ``AerSimulator`` used in §8.7.  The state is
a dense 2^n x 2^n matrix, gates are applied as ``U rho U†`` on the relevant
qubit axes, the channels of a :class:`~repro.quantum.noise.NoiseModel` are
applied after every gate they are attached to, and readout error is folded
into Pauli expectation values analytically.

Two execution modes share one set of kernels:

* :class:`DensityMatrixSimulator` — run one bound circuit at a time (the
  per-request path every estimator fallback uses).
* :class:`DensityMatrixBackend` — the batched
  :class:`~repro.quantum.backend.ExecutionBackend`: requests are grouped by
  :class:`~repro.quantum.program.CircuitProgram` fingerprint and each group
  evolves as one stacked ``(batch, 2^n, 2^n)`` array, with gate matrices from
  the program's precompiled dispatch plan and each noise channel applied
  batch-wide as a single superoperator GEMM.

Bit-identity contract
---------------------
Batched noisy execution must reproduce the per-request
:class:`DensityMatrixSimulator` bit-for-bit, independent of batch
composition — the noisy extension of the PR 2 statevector invariant.  Both
modes therefore route every gate and channel through the *same* stacked
kernels below (the sequential simulator is the batch-of-one case), gate
matrices come from the same builders on both paths (the vectorized rotation
builders agree bit-for-bit with the scalar ones), and channels are applied
through the same cached :meth:`~repro.quantum.noise.KrausChannel.superoperator`
matrix.  ``tests/quantum/test_density_backend.py`` locks the contract down;
do not change gate/channel application here without re-verifying it.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .backend import (
    BACKEND_REGISTRY,
    BackendResult,
    ExecutionBackend,
    ExecutionRequest,
    request_initial_amplitudes,
    resolve_program_request,
)
from .circuit import QuantumCircuit
from .engine import compiled_pauli_operator
from .gates import gate_matrix
from .noise import KrausChannel, NoiseModel
from .pauli import PauliOperator
from .program import CircuitProgram
from .statevector import Statevector

__all__ = [
    "DensityMatrix",
    "DensityMatrixSimulator",
    "DensityMatrixBackend",
    "validate_density_matrix_qubits",
    "apply_unitary_to_density_batch",
    "apply_channel_to_density_batch",
    "noisy_term_vector",
]

_MAX_QUBITS = 12


def validate_density_matrix_qubits(num_qubits: int) -> None:
    """Reject executions too wide for dense density-matrix simulation.

    Called at wiring time (backend construction, cluster construction, the
    start of a batch) so the failure is an actionable message rather than a
    multi-gigabyte allocation deep inside evolution.
    """
    if num_qubits > _MAX_QUBITS:
        raise ValueError(
            f"density-matrix simulation is limited to {_MAX_QUBITS} qubits "
            f"(each execution holds a 2^{num_qubits} x 2^{num_qubits} complex "
            f"matrix); got {num_qubits} qubits — use the 'statevector' backend "
            "for noiseless runs, or reduce the problem size"
        )


# -- shared stacked kernels ------------------------------------------------------


def _apply_stacked_matrices(
    tensor: np.ndarray, matrices: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Left-multiply stacked operator matrices onto the listed tensor axes.

    ``tensor`` has shape ``(batch,) + (2,) * m``; ``matrices`` is
    ``(batch, 2**k, 2**k)`` (or a broadcastable ``(2**k, 2**k)``) with
    ``k = len(axes)``.  The stacked ``matmul`` performs one GEMM per batch row
    with batch-independent operand shapes, so each row is bit-identical to
    applying its matrix alone — the invariant the parity tests pin down.
    """
    k = len(axes)
    batch = tensor.shape[0]
    moved = np.moveaxis(tensor, axes, range(1, k + 1))
    rest = moved.shape[k + 1 :]
    arr = np.ascontiguousarray(moved).reshape(batch, 1 << k, -1)
    out = np.matmul(matrices, arr)
    out = out.reshape((batch,) + (2,) * k + rest)
    return np.moveaxis(out, range(1, k + 1), axes)


def apply_unitary_to_density_batch(
    tensor: np.ndarray,
    matrices: np.ndarray,
    qubits: tuple[int, ...],
    num_qubits: int,
) -> np.ndarray:
    """``U rho U†`` across a stacked density tensor, per-slice GEMMs.

    ``tensor`` has shape ``(batch,) + (2,) * (2 * num_qubits)`` — row axes
    first, column axes second; ``matrices`` is ``(batch, 2**k, 2**k)``.  The
    unitary multiplies the row axes and its elementwise conjugate the column
    axes (``rho' = U rho U†`` in index form).
    """
    row_axes = [1 + qubit for qubit in qubits]
    col_axes = [1 + num_qubits + qubit for qubit in qubits]
    tensor = _apply_stacked_matrices(tensor, matrices, row_axes)
    return _apply_stacked_matrices(tensor, np.conj(matrices), col_axes)


def apply_channel_to_density_batch(
    tensor: np.ndarray,
    superoperator: np.ndarray,
    qubits: tuple[int, ...],
    num_qubits: int,
) -> np.ndarray:
    """Apply one channel batch-wide as a single superoperator GEMM.

    ``superoperator`` is the channel's ``Σ_k K ⊗ conj(K)`` matrix (see
    :meth:`~repro.quantum.noise.KrausChannel.superoperator`); it acts on the
    combined (row, column) axes of the target qubits, so a whole batch of
    density matrices absorbs the channel in one ``(4**k, 4**k)`` product
    instead of a pair of matrix products per Kraus operator per request.
    """
    axes = [1 + qubit for qubit in qubits] + [
        1 + num_qubits + qubit for qubit in qubits
    ]
    return _apply_stacked_matrices(tensor, superoperator, axes)


def noisy_term_vector(engine, rho: np.ndarray, readout_error: float) -> np.ndarray:
    """Per-term expectation values of an evolved density matrix, with
    identity terms pinned to exactly 1 and symmetric readout error folded
    analytically (``(1 - 2p)^weight`` per term).

    The single noise-layer fold shared by the batched backend and the
    per-request estimator — one implementation, so the two paths cannot
    drift apart (the bit-identity contract).
    """
    vector = engine.expectation_values_density(rho)
    vector[engine.identity_mask] = 1.0
    if readout_error > 0:
        vector = vector * (1.0 - 2.0 * readout_error) ** engine.weights
    return vector


class DensityMatrix:
    """A mixed state on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray) -> None:
        array = np.asarray(data, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise ValueError("density matrix must be square")
        num_qubits = int(round(np.log2(array.shape[0])))
        if 2 ** num_qubits != array.shape[0]:
            raise ValueError("density matrix dimension must be a power of two")
        self.num_qubits = num_qubits
        self._data = array.copy()

    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        """|0...0><0...0|."""
        dim = 2 ** num_qubits
        data = np.zeros((dim, dim), dtype=complex)
        data[0, 0] = 1.0
        return cls(data)

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        """|psi><psi| for a pure state."""
        vector = state.data
        return cls(np.outer(vector, vector.conj()))

    @property
    def data(self) -> np.ndarray:
        """Copy of the matrix."""
        return self._data.copy()

    def trace(self) -> float:
        return float(np.trace(self._data).real)

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states, 1/2^n for the maximally mixed state."""
        return float(np.trace(self._data @ self._data).real)

    def expectation(self, operator: PauliOperator) -> float:
        """Tr(rho H)."""
        if operator.num_qubits != self.num_qubits:
            raise ValueError("qubit-count mismatch")
        engine = compiled_pauli_operator(operator)
        return float(engine.coefficients @ engine.expectation_values_density(self._data))

    def fidelity_with_pure(self, state: Statevector) -> float:
        """<psi|rho|psi> for a pure reference state."""
        vector = state.data
        return float(np.real(vector.conj() @ self._data @ vector))

    # -- evolution -------------------------------------------------------------

    def _as_batch_tensor(self) -> np.ndarray:
        """The matrix as a batch-of-one tensor for the shared kernels."""
        return self._data.reshape((1,) + (2,) * (2 * self.num_qubits))

    def apply_unitary(self, matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Apply a k-qubit unitary on the listed qubits, in place.

        Routed through the same stacked kernel the batched backend uses (with
        a batch of one), so sequential and batched evolution are bit-identical
        by construction.
        """
        matrices = np.asarray(matrix, dtype=complex)[None, :, :]
        out = apply_unitary_to_density_batch(
            self._as_batch_tensor(), matrices, qubits, self.num_qubits
        )
        self._data = out.reshape(self._data.shape)

    def apply_channel(self, channel: KrausChannel, qubits: tuple[int, ...]) -> None:
        """Apply a Kraus channel on the listed qubits, in place (same
        superoperator kernel as batched execution)."""
        if len(qubits) != channel.num_qubits:
            raise ValueError("channel and qubit count mismatch")
        out = apply_channel_to_density_batch(
            self._as_batch_tensor(), channel.superoperator(), qubits, self.num_qubits
        )
        self._data = out.reshape(self._data.shape)


class DensityMatrixSimulator:
    """Run bound circuits under a :class:`NoiseModel` and estimate expectations.

    The per-request form of noisy execution: one circuit, one density matrix,
    one Python loop over instructions.  Shares its gate/channel kernels with
    :class:`DensityMatrixBackend`, which executes whole request batches as
    stacked arrays — bit-identically to this simulator.
    """

    def __init__(self, noise_model: NoiseModel | None = None) -> None:
        self.noise_model = noise_model or NoiseModel()
        self.circuits_run = 0

    def run(
        self, circuit: QuantumCircuit, initial_state: DensityMatrix | None = None
    ) -> DensityMatrix:
        """Simulate a bound circuit with noise channels attached to each gate."""
        validate_density_matrix_qubits(circuit.num_qubits)
        if not circuit.is_bound():
            raise ValueError("circuit has unbound parameters; call circuit.bind first")
        state = initial_state or DensityMatrix.zero_state(circuit.num_qubits)
        state = DensityMatrix(state.data)
        # is_noiseless short-circuits channel application: both lists are
        # empty and evolution is purely unitary.
        single_channels = self.noise_model.single_qubit_channels()
        two_channels = self.noise_model.two_qubit_channels()
        for inst in circuit.instructions:
            matrix = gate_matrix(inst.gate, *inst.params)  # type: ignore[arg-type]
            state.apply_unitary(matrix, inst.qubits)
            if len(inst.qubits) == 1:
                for channel in single_channels:
                    state.apply_channel(channel, inst.qubits)
            else:
                for channel in two_channels:
                    state.apply_channel(channel, inst.qubits)
                # Decoherence also affects both qubits of a two-qubit gate.
                for channel in single_channels:
                    for qubit in inst.qubits:
                        state.apply_channel(channel, (qubit,))
        self.circuits_run += 1
        return state

    def expectation(
        self,
        circuit: QuantumCircuit,
        operator: PauliOperator,
        initial_state: DensityMatrix | None = None,
    ) -> float:
        """Tr(rho H) with readout error folded into Z-basis expectations."""
        state = self.run(circuit, initial_state)
        if self.noise_model.readout_error == 0:
            return state.expectation(operator)
        # Each term contracts by (1-2p)^weight under symmetric readout flips.
        engine = compiled_pauli_operator(operator)
        vector = noisy_term_vector(engine, state._data, self.noise_model.readout_error)
        return float(engine.coefficients @ vector)


class DensityMatrixBackend(ExecutionBackend):
    """Batched noisy execution: stacked ``U ρ U†`` evolution per program group.

    Every request is resolved to a (program, parameter-row) pair exactly like
    the statevector backend; each program group then evolves as one stacked
    ``(batch, 2^n, 2^n)`` density array — gate matrices from the program's
    precompiled dispatch plan, each attached noise channel applied batch-wide
    as a single cached-superoperator GEMM, readout error folded analytically
    into the returned term vectors.  Per-slice results are bit-identical to
    running each request alone through :class:`DensityMatrixSimulator`
    (the parity suite's contract), so batch composition never shows up in
    the numbers.

    Term vectors are expectation values *under this backend's noise model*;
    :class:`~repro.quantum.sampling.DensityMatrixEstimator` declares
    ``requires_backend = "density_matrix"`` so the round scheduler only
    batches through a matching backend (anything else falls back to the
    per-request path, which is always correct).
    """

    name = "density_matrix"
    #: make_execution_backend forwards a noise model to this constructor.
    accepts_noise_model = True
    #: Mixed states: prepared pure statevectors cannot be attached, so the
    #: scheduler never pairs this backend with a states-consuming estimator.
    provides_states = False

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        *,
        num_qubits: int | None = None,
    ) -> None:
        # ``num_qubits`` is an opt-in width check for direct construction;
        # the config wiring path cannot know the width this early, so its
        # guard lives at cluster construction and batch entry instead.
        self.noise_model = noise_model or NoiseModel()
        if num_qubits is not None:
            validate_density_matrix_qubits(num_qubits)
        self.batches_run = 0
        self.requests_run = 0
        #: Requests that arrived on the program path (no circuit object).
        self.program_requests = 0
        # Channel plan: one cached superoperator per attached channel, in the
        # exact order the sequential simulator applies them.  is_noiseless
        # short-circuits channel application entirely (both plans empty).
        if self.noise_model.is_noiseless:
            self._single_superops: tuple[np.ndarray, ...] = ()
            self._two_superops: tuple[np.ndarray, ...] = ()
        else:
            self._single_superops = tuple(
                channel.superoperator()
                for channel in self.noise_model.single_qubit_channels()
            )
            self._two_superops = tuple(
                channel.superoperator()
                for channel in self.noise_model.two_qubit_channels()
            )

    def run_batch(
        self, requests: Sequence[ExecutionRequest], *, need_states: bool = False
    ) -> list[BackendResult]:
        if need_states:
            raise ValueError(
                "DensityMatrixBackend prepares mixed states and cannot attach "
                "pure statevectors (need_states=True); use an estimator that "
                "consumes term vectors, or a statevector backend"
            )
        requests = list(requests)
        results: list[BackendResult | None] = [None] * len(requests)
        rows: list[np.ndarray | None] = [None] * len(requests)
        groups: dict[tuple, list[int]] = {}
        programs: dict[tuple, CircuitProgram] = {}
        for index, request in enumerate(requests):
            # Validate every width before any 2^n x 2^n allocation happens.
            validate_density_matrix_qubits(request.num_qubits)
            program, row = resolve_program_request(request)
            if request.program is not None:
                self.program_requests += 1
            key = program.fingerprint
            programs.setdefault(key, program)
            groups.setdefault(key, []).append(index)
            rows[index] = row
        readout = self.noise_model.readout_error
        for key, indices in groups.items():
            program = programs[key]
            num_qubits = program.num_qubits
            dim = 1 << num_qubits
            batch = len(indices)
            rhos = np.empty((batch, dim, dim), dtype=complex)
            for slot, index in enumerate(indices):
                amplitudes = request_initial_amplitudes(requests[index], num_qubits)
                rhos[slot] = np.outer(amplitudes, amplitudes.conj())
            parameter_matrix = (
                np.stack([rows[index] for index in indices])
                if program.num_parameters
                else np.zeros((batch, 0))
            )
            tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
            for gate, qubits, matrices in program.tape_matrices(parameter_matrix):
                tensor = apply_unitary_to_density_batch(
                    tensor, matrices, qubits, num_qubits
                )
                tensor = self._apply_gate_noise(tensor, qubits, num_qubits)
            rhos = tensor.reshape(batch, dim, dim)
            for slot, index in enumerate(indices):
                request = requests[index]
                engine = compiled_pauli_operator(request.operator)
                vector = noisy_term_vector(engine, rhos[slot], readout)
                results[index] = BackendResult(
                    term_basis=engine.paulis,
                    term_vector=vector,
                    state=None,
                    backend_name=self.name,
                    tag=request.tag,
                )
        self.batches_run += 1
        self.requests_run += len(requests)
        return results  # type: ignore[return-value]

    def _apply_gate_noise(
        self, tensor: np.ndarray, qubits: tuple[int, ...], num_qubits: int
    ) -> np.ndarray:
        """Channels attached after one gate, in the sequential simulator's order."""
        if len(qubits) == 1:
            for superop in self._single_superops:
                tensor = apply_channel_to_density_batch(
                    tensor, superop, qubits, num_qubits
                )
            return tensor
        for superop in self._two_superops:
            tensor = apply_channel_to_density_batch(tensor, superop, qubits, num_qubits)
        # Decoherence also affects both qubits of a two-qubit gate.
        for superop in self._single_superops:
            for qubit in qubits:
                tensor = apply_channel_to_density_batch(
                    tensor, superop, (qubit,), num_qubits
                )
        return tensor


BACKEND_REGISTRY["density_matrix"] = DensityMatrixBackend
