"""Compile-once measurement plans for literal bitstring sampling.

A :class:`MeasurementPlan` is to the sampling estimator what a
:class:`~repro.quantum.program.CircuitProgram` is to circuit execution: all
the structure work that depends only on the *operator* — qubit-wise-commuting
(QWC) grouping, each group's per-qubit basis rotation, and per-term bit masks
for sign evaluation — is done once per operator fingerprint and cached
process-wide, so every later evaluation is pure array work:

* **Stacked basis rotations** — each group's rotation is a sequence of
  single-qubit 2×2 matrices applied to the whole ``(B, 2^n)`` amplitude
  stack through :func:`~repro.quantum.program.apply_gate_batched`, the same
  kernel the batched backends run on.  Each row's rotated amplitudes are
  bit-identical to evolving that request's state alone through the legacy
  per-request rotation circuit (the PR 2 invariant).
* **Vectorized inverse-CDF draws** — :func:`sample_outcomes` maps a
  ``(B, shots)`` uniform block through each row's cumulative distribution
  with one ``cumsum`` and per-row ``searchsorted`` calls, replacing the
  O(2^n)-per-call ``rng.choice`` of the legacy path.
* **Mask-parity signs** — each term's measured sign for an outcome ``b`` is
  ``(-1)^popcount(b & support_mask)`` over a packed uint64 support mask
  (the same MSB-first bit convention as
  :class:`~repro.quantum.engine.CompiledPauliOperator`), so the whole
  ``(B, T)`` term-value matrix falls out of a handful of array ops.

Randomness stays *outside* the plan: callers pass one
:class:`numpy.random.Generator` per batch row, and the plan draws each row's
uniforms in a single ``rng.random((num_groups, shots))`` call — the anchor
of the sampling estimator's bit-identity guarantee (see
:class:`~repro.quantum.sampling.SamplingEstimator`).

The plan cache mirrors the program cache: process-wide, LRU-bounded,
observable via :func:`measurement_plan_cache_stats`, and adjustable via
:func:`set_measurement_plan_cache_limit` /
``TreeVQAConfig(measurement_plan_cache_size=...)``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .circuit import QuantumCircuit
from .gates import gate_matrix
from .pauli import PauliOperator, PauliString, _popcount
from .program import apply_gate_batched

__all__ = [
    "MeasurementGroup",
    "MeasurementPlan",
    "measurement_plan_for",
    "sample_outcomes",
    "measurement_basis",
    "basis_rotation_circuit",
    "measurement_plan_cache_stats",
    "clear_measurement_plan_cache",
    "set_measurement_plan_cache_limit",
]

#: Probability totals of a rotated dense state may drift from 1 only by
#: floating-point noise; a larger deviation means the input state was not
#: normalized, and the plan refuses rather than silently renormalizing.
NORMALIZATION_ATOL = 1e-8


def measurement_basis(paulis: Sequence[PauliString]) -> list[str]:
    """Per-qubit measurement basis ('I', 'X', 'Y' or 'Z') for a QWC group."""
    num_qubits = paulis[0].num_qubits
    basis = ["I"] * num_qubits
    for pauli in paulis:
        for qubit, op in enumerate(pauli.label):
            if op == "I":
                continue
            if basis[qubit] == "I":
                basis[qubit] = op
            elif basis[qubit] != op:
                raise ValueError("terms are not qubit-wise commuting")
    return basis


def basis_rotation_circuit(basis: Sequence[str]) -> QuantumCircuit:
    """Circuit rotating each qubit's measurement basis to Z (legacy form)."""
    circuit = QuantumCircuit(len(basis), name="basis-rotation")
    for qubit, op in enumerate(basis):
        if op == "X":
            circuit.h(qubit)
        elif op == "Y":
            circuit.sdg(qubit)
            circuit.h(qubit)
    return circuit


def _basis_rotations(basis: Sequence[str]) -> tuple[tuple[int, np.ndarray], ...]:
    """The rotation as (qubit, 2×2 matrix) applications, in the exact gate
    order of :func:`basis_rotation_circuit` — kept as *separate* single-qubit
    applications (Sdg then H for the Y basis, never fused into one matrix) so
    the rotated amplitudes are bit-identical to the legacy circuit path."""
    rotations: list[tuple[int, np.ndarray]] = []
    for qubit, op in enumerate(basis):
        if op == "X":
            rotations.append((qubit, gate_matrix("h")))
        elif op == "Y":
            rotations.append((qubit, gate_matrix("sdg")))
            rotations.append((qubit, gate_matrix("h")))
    return tuple(rotations)


def sample_outcomes(probabilities: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF sampling of computational-basis outcomes.

    ``probabilities`` has shape ``(B, dim)`` and ``uniforms`` shape
    ``(B, shots)`` with entries in ``[0, 1)``; the result is the ``(B, shots)``
    int64 outcome indices.  Each row's uniforms are scaled by that row's
    probability total before the ``searchsorted``, which is arithmetically
    identical to renormalizing the probabilities — callers are expected to
    have *checked* the totals already (see :attr:`NORMALIZATION_ATOL`); the
    scaling only absorbs the residual floating-point drift.
    """
    probabilities = np.atleast_2d(np.asarray(probabilities))
    uniforms = np.atleast_2d(np.asarray(uniforms))
    if probabilities.shape[0] != uniforms.shape[0]:
        raise ValueError("probabilities and uniforms batch sizes differ")
    cdf = np.cumsum(probabilities, axis=-1)
    dim = cdf.shape[-1]
    outcomes = np.empty(uniforms.shape, dtype=np.int64)
    for row in range(uniforms.shape[0]):
        # Per-row searchsorted: row counts are small (one per request), and a
        # row-local search keeps each request's draws independent of batch
        # composition — the bit-identity anchor.
        outcomes[row] = np.searchsorted(
            cdf[row], uniforms[row] * cdf[row, -1], side="right"
        )
    np.minimum(outcomes, dim - 1, out=outcomes)
    return outcomes


@dataclass(frozen=True)
class MeasurementGroup:
    """One qubit-wise-commuting measurement setting of a plan."""

    #: Per-qubit measurement basis, 'I'/'X'/'Y'/'Z'.
    basis: tuple[str, ...]
    #: Single-qubit rotations as (qubit, 2×2 matrix), in circuit gate order.
    rotations: tuple[tuple[int, np.ndarray], ...]
    #: Indices of this group's non-identity terms in the plan's term order.
    term_indices: np.ndarray
    #: Packed per-term support masks (qubit 0 = MSB, the engine convention).
    support_masks: np.ndarray


class MeasurementPlan:
    """Compile-once measurement program for one Pauli operator.

    The term order is the operator's own (:meth:`PauliOperator.paulis`), so
    term matrices line up with every other ``term_vector`` in the codebase.
    Groups that contain only identity terms are not sampled — identity terms
    contribute exactly 1.0 — and :meth:`shots_used` charges one
    ``shots_per_term`` block per *sampled* group, matching the legacy
    estimator's accounting.
    """

    def __init__(self, operator: PauliOperator) -> None:
        paulis = tuple(operator.paulis())
        self.paulis = paulis
        self.coefficients = operator.coefficient_vector(paulis)
        self.num_qubits = operator.num_qubits
        self.num_terms = len(paulis)
        self.identity_mask = np.array(
            [pauli.is_identity for pauli in paulis], dtype=bool
        )
        index_of = {pauli: index for index, pauli in enumerate(paulis)}
        groups: list[MeasurementGroup] = []
        for group in operator.group_qubit_wise_commuting():
            non_identity = [pauli for pauli in group if not pauli.is_identity]
            if not non_identity:
                continue
            basis = measurement_basis(non_identity)
            masks = np.zeros(len(non_identity), dtype=np.uint64)
            for slot, pauli in enumerate(non_identity):
                bits = 0
                for qubit in pauli.support():
                    bits |= 1 << (self.num_qubits - 1 - qubit)  # qubit 0 is the MSB
                masks[slot] = bits
            groups.append(
                MeasurementGroup(
                    basis=tuple(basis),
                    rotations=_basis_rotations(basis),
                    term_indices=np.array(
                        [index_of[pauli] for pauli in non_identity], dtype=np.intp
                    ),
                    support_masks=masks,
                )
            )
        self.groups: tuple[MeasurementGroup, ...] = tuple(groups)
        self.num_groups = len(groups)

    def shots_used(self, shots_per_term: int) -> int:
        """Shot cost of one evaluation: one block per sampled group (at least
        one block, matching the legacy estimator's floor)."""
        return shots_per_term * max(self.num_groups, 1)

    def group_probabilities(
        self, amplitudes: np.ndarray, group: MeasurementGroup
    ) -> np.ndarray:
        """Outcome probabilities of the batch in the group's measurement basis.

        ``amplitudes`` is the ``(B, 2^n)`` complex stack; the rotations run
        through :func:`~repro.quantum.program.apply_gate_batched`, so each
        row is bit-identical to ``state.evolve(basis_rotation_circuit(...))``
        of that request alone.
        """
        amplitudes = np.asarray(amplitudes)
        batch = amplitudes.shape[0]
        tensor = amplitudes.reshape((batch,) + (2,) * self.num_qubits)
        for qubit, matrix in group.rotations:
            matrices = np.broadcast_to(matrix, (batch, 2, 2))
            tensor = apply_gate_batched(tensor, matrices, (qubit,))
        rotated = tensor.reshape(batch, -1)
        return np.abs(rotated) ** 2

    def group_term_values(
        self, group: MeasurementGroup, outcomes: np.ndarray
    ) -> np.ndarray:
        """Per-term sample means for one group's sampled outcomes.

        ``outcomes`` has shape ``(..., shots)``; the result has shape
        ``(..., len(group.term_indices))``.  The sign of term ``t`` for
        outcome ``b`` is ``(-1)^popcount(b & support_mask_t)`` — exactly the
        product of per-qubit ``1 - 2*bit`` factors the legacy bit-table loop
        computed, as exact ±1.0 floats, so the means agree bitwise.
        """
        masked = outcomes[..., None, :].astype(np.uint64) & group.support_masks[:, None]
        parity = (_popcount(masked) & np.uint64(1)).astype(float)
        return (1.0 - 2.0 * parity).mean(axis=-1)

    def term_matrix(
        self,
        amplitudes: np.ndarray,
        shots_per_term: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """The ``(B, T)`` per-term sample-mean matrix for a stack of states.

        ``rngs`` supplies one generator per batch row; each row's uniforms
        for *all* groups are drawn in a single ``rng.random((G, shots))``
        call, so a row's draws depend only on its own generator — never on
        the batch composition.  Evaluating rows one at a time with the same
        generators is bit-identical to one batched call.
        """
        amplitudes = np.atleast_2d(np.asarray(amplitudes))
        batch = amplitudes.shape[0]
        if len(rngs) != batch:
            raise ValueError("need exactly one RNG per batch row")
        values = np.zeros((batch, self.num_terms))
        values[:, self.identity_mask] = 1.0
        if not self.groups:
            return values
        if amplitudes.shape[1] != 1 << self.num_qubits:
            raise ValueError(
                f"amplitude stack has dimension {amplitudes.shape[1]}, expected "
                f"2^{self.num_qubits} for this plan's operator"
            )
        self._check_normalization(amplitudes)
        uniform_blocks = [
            rng.random((self.num_groups, shots_per_term)) for rng in rngs
        ]
        for slot, group in enumerate(self.groups):
            probabilities = self.group_probabilities(amplitudes, group)
            uniforms = np.stack([block[slot] for block in uniform_blocks])
            outcomes = sample_outcomes(probabilities, uniforms)
            values[:, group.term_indices] = self.group_term_values(group, outcomes)
        return values

    def _check_normalization(self, amplitudes: np.ndarray) -> None:
        """One tolerance check per evaluation (rotations are unitary, so the
        input norms bound every group's probability total) — replacing the
        legacy path's silent per-group, per-request renormalization."""
        totals = np.einsum("bi,bi->b", np.abs(amplitudes), np.abs(amplitudes))
        error = float(np.abs(totals - 1.0).max())
        if error > NORMALIZATION_ATOL:
            raise ValueError(
                "measurement sampling needs normalized states: probability "
                f"totals deviate from 1 by {error:.3e} "
                f"(tolerance {NORMALIZATION_ATOL:.0e}); normalize the prepared "
                "state before estimating"
            )


# -- persistent plan cache ------------------------------------------------------

_DEFAULT_PLAN_CACHE_LIMIT = 256

_plan_cache: OrderedDict[tuple, MeasurementPlan] = OrderedDict()
_plan_cache_limit = _DEFAULT_PLAN_CACHE_LIMIT
_plan_cache_hits = 0
_plan_cache_misses = 0
_plan_cache_evictions = 0


def _operator_fingerprint(operator: PauliOperator) -> tuple:
    """Value key for plan interning (same shape as the engine/wire caches)."""
    return (
        operator.num_qubits,
        tuple((pauli.label, coefficient) for pauli, coefficient in operator.items()),
    )


def measurement_plan_for(operator: PauliOperator) -> MeasurementPlan:
    """The compile-once measurement plan for ``operator`` (cached).

    Plans are interned process-wide by *value* fingerprint (qubit count plus
    ordered (label, coefficient) pairs — the same scheme the engine and wire
    caches use), so repeated estimates of the same Hamiltonian, across
    requests, rounds, and controller instances, compile the QWC grouping and
    support masks exactly once.  An operator mutated in place (``chop``)
    compiles fresh under its new fingerprint.
    """
    global _plan_cache_hits, _plan_cache_misses, _plan_cache_evictions
    key = _operator_fingerprint(operator)
    plan = _plan_cache.get(key)
    if plan is not None:
        _plan_cache_hits += 1
        _plan_cache.move_to_end(key)
        return plan
    plan = MeasurementPlan(operator)
    _plan_cache_misses += 1
    _plan_cache[key] = plan
    while len(_plan_cache) > _plan_cache_limit:
        _plan_cache.popitem(last=False)
        _plan_cache_evictions += 1
    return plan


def measurement_plan_cache_stats() -> dict[str, int]:
    """Current plan-cache statistics (hits/misses/evictions/size/limit)."""
    return {
        "hits": _plan_cache_hits,
        "misses": _plan_cache_misses,
        "evictions": _plan_cache_evictions,
        "size": len(_plan_cache),
        "limit": _plan_cache_limit,
    }


def clear_measurement_plan_cache() -> None:
    """Drop every cached plan and reset the statistics."""
    global _plan_cache_hits, _plan_cache_misses, _plan_cache_evictions
    _plan_cache.clear()
    _plan_cache_hits = _plan_cache_misses = _plan_cache_evictions = 0


def set_measurement_plan_cache_limit(limit: int) -> None:
    """Set the maximum number of cached plans (LRU eviction beyond it)."""
    global _plan_cache_limit, _plan_cache_evictions
    if limit < 1:
        raise ValueError("measurement plan cache limit must be >= 1")
    _plan_cache_limit = limit
    while len(_plan_cache) > _plan_cache_limit:
        _plan_cache.popitem(last=False)
        _plan_cache_evictions += 1
