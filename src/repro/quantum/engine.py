"""Compile-once, vectorized Pauli expectation engine.

Every optimizer step of every TreeVQA cluster bottoms out in evaluating all
Pauli terms of a (mixed) Hamiltonian against a statevector.  Doing that one
term at a time with :meth:`Statevector.pauli_expectation` costs dozens of
small NumPy calls per term; this module instead compiles an operator **once**
into flat index/sign tables and evaluates **all terms in one vectorized
pass** over the 2^n amplitudes.

The tables come from each term's symplectic encoding
(:attr:`~repro.quantum.pauli.PauliString.symplectic`,
``P|b> = i^{n_Y} (-1)^{popcount(b & z)} |b ^ f>``), so the expectation value
of term ``t`` is

    <psi|P_t|psi> = i^{n_Y_t} * sum_b conj(psi[b ^ f_t]) * s_t[b] * psi[b],

which, with the permutation table ``perm[t, b] = b ^ f_t`` and the sign table
``s_t[b]`` precomputed, is a gather, an elementwise product, and one BLAS
matrix-vector product for the whole operator.

Contract used throughout the code base:

* :meth:`CompiledPauliOperator.expectation_values` returns one value per term
  in the engine's term order (:attr:`CompiledPauliOperator.paulis`), which for
  an engine compiled from a :class:`~repro.quantum.pauli.PauliOperator` is the
  operator's insertion order — the same order
  :class:`~repro.quantum.sampling.EstimatorResult` uses for its term vector
  and :class:`~repro.core.mixed_hamiltonian.MixedHamiltonian` uses for its
  padded basis and coefficient matrix.
* Zero-coefficient terms are compiled and evaluated too: clusters reuse the
  measured term vector to recombine *individual* task energies whose
  coefficients need not vanish where the mixed coefficient does.

Use :func:`compiled_pauli_operator` to get a cached engine for an operator;
the cache lives on the operator instance and is invalidated when its terms
change (e.g. via :meth:`~repro.quantum.pauli.PauliOperator.chop`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from .pauli import PauliOperator, PauliString, _popcount

__all__ = ["CompiledPauliOperator", "compiled_pauli_operator", "pauli_evaluator"]

#: Compiling allocates O(num_terms * 2^n) tables; past this qubit count
#: :func:`pauli_evaluator` falls back to a per-term evaluator with the same
#: interface instead.
_MAX_COMPILED_QUBITS = 16

#: Table-size budget for the factory: beyond ``num_terms * 2^n`` elements the
#: compiled tables (and the per-call gather) stop paying for themselves in
#: memory, so :func:`pauli_evaluator` falls back to the per-term evaluator.
_MAX_COMPILED_ELEMENTS = 1 << 23


def _as_amplitudes(state) -> np.ndarray:
    """Flat complex amplitude array from a Statevector or array-like."""
    data = getattr(state, "data", state)
    return np.asarray(data, dtype=complex).ravel()


class _TermEvaluator:
    """Term bookkeeping and the evaluation interface both evaluators share.

    Parameters
    ----------
    paulis:
        The Pauli terms, as :class:`PauliString` instances or labels.  Their
        order defines the term order of every returned vector.
    coefficients:
        Optional real coefficients aligned with ``paulis`` (imaginary parts
        are dropped, matching the Hermitian-observable convention used by the
        estimators).  Defaults to zeros when omitted; only
        :meth:`expectation` needs them.
    num_qubits:
        Required only when ``paulis`` is empty.
    """

    def __init__(
        self,
        paulis: Iterable[PauliString | str],
        coefficients: Sequence[complex] | np.ndarray | None = None,
        *,
        num_qubits: int | None = None,
    ) -> None:
        terms = tuple(p if isinstance(p, PauliString) else PauliString(p) for p in paulis)
        if terms:
            num_qubits = terms[0].num_qubits
            if any(pauli.num_qubits != num_qubits for pauli in terms):
                raise ValueError("all terms must share the qubit count")
        elif num_qubits is None:
            raise ValueError("num_qubits required for an empty term list")
        if coefficients is None:
            coefficients = np.zeros(len(terms))
        real_coefficients = np.asarray(coefficients, dtype=complex).real.astype(float)
        if real_coefficients.shape != (len(terms),):
            raise ValueError("coefficients must align with the term list")
        self._paulis = terms
        self._num_qubits = int(num_qubits)
        self._coefficients = real_coefficients
        self._weights = np.array([pauli.weight for pauli in terms], dtype=np.int64)
        self._identity_mask = self._weights == 0
        self._num_measured_terms = int(
            np.count_nonzero(~self._identity_mask & (real_coefficients != 0))
        )

    # -- properties -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        return len(self._paulis)

    @property
    def paulis(self) -> tuple[PauliString, ...]:
        """The compiled terms; every returned vector follows this order."""
        return self._paulis

    @property
    def coefficients(self) -> np.ndarray:
        """Real coefficients aligned with :attr:`paulis` (copy)."""
        return self._coefficients.copy()

    @property
    def weights(self) -> np.ndarray:
        """Number of non-identity factors per term (copy)."""
        return self._weights.copy()

    @property
    def identity_mask(self) -> np.ndarray:
        """Boolean mask of all-identity terms (copy)."""
        return self._identity_mask.copy()

    @property
    def num_measured_terms(self) -> int:
        """Terms that cost shots: non-identity with nonzero coefficient."""
        return self._num_measured_terms

    # -- evaluation -----------------------------------------------------------

    def expectation_values(self, state) -> np.ndarray:
        """``<psi|P_t|psi>`` for every term, aligned with :attr:`paulis`.

        ``state`` may be a :class:`~repro.quantum.statevector.Statevector` or
        any array-like of 2^n amplitudes.
        """
        raise NotImplementedError

    def expectation_values_density(self, rho: np.ndarray) -> np.ndarray:
        """``tr(rho P_t)`` for every term, from a dense density matrix."""
        raise NotImplementedError

    def expectation_values_batch(self, states) -> np.ndarray:
        """Term values for several states: shape ``(num_states, num_terms)``.

        ``states`` is an iterable of statevectors / amplitude arrays (or a 2-D
        array with one state per row).
        """
        rows = [_as_amplitudes(state) for state in states]
        out = np.zeros((len(rows), self.num_terms))
        for s, psi in enumerate(rows):
            out[s] = self.expectation_values(psi)
        return out

    def expectation(self, state) -> float:
        """``<psi|H|psi>`` using the compiled coefficients."""
        return float(self._coefficients @ self.expectation_values(state))


class CompiledPauliOperator(_TermEvaluator):
    """Precompiled bit-flip/sign tables for vectorized Pauli evaluation.

    Takes the :class:`_TermEvaluator` parameters; the tables come from each
    term's :attr:`~repro.quantum.pauli.PauliString.symplectic` masks.
    """

    def __init__(
        self,
        paulis: Iterable[PauliString | str],
        coefficients: Sequence[complex] | np.ndarray | None = None,
        *,
        num_qubits: int | None = None,
    ) -> None:
        super().__init__(paulis, coefficients, num_qubits=num_qubits)
        if not 1 <= self._num_qubits <= _MAX_COMPILED_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {_MAX_COMPILED_QUBITS}], got {self._num_qubits}"
            )
        masks = np.array([pauli.symplectic for pauli in self._paulis], dtype=np.int64)
        flip_masks, phase_masks, y_counts = masks.reshape(len(self._paulis), 3).T
        indices = np.arange(1 << self._num_qubits, dtype=np.int64)
        self._indices = indices
        # perm[t, b] = b XOR flip_mask_t : where amplitude b is sent by term t.
        self._perm = indices[None, :] ^ flip_masks[:, None]
        # signs[t, b] = (-1)^popcount(b & phase_mask_t).
        parity = _popcount(indices[None, :] & phase_masks[:, None]) & 1
        self._signs = 1.0 - 2.0 * parity.astype(float)
        self._prefactors = np.power(1j, y_counts)

    def expectation_values(self, state) -> np.ndarray:
        """``<psi|P_t|psi>`` for every term, in one vectorized pass."""
        psi = _as_amplitudes(state)
        if psi.size != self._indices.size:
            raise ValueError(
                f"state has {psi.size} amplitudes, engine expects {self._indices.size}"
            )
        if not self._paulis:
            return np.zeros(0)
        gathered = np.conj(psi)[self._perm] * self._signs
        return np.real(self._prefactors * (gathered @ psi))

    def expectation_values_density(self, rho: np.ndarray) -> np.ndarray:
        """``tr(rho P_t)`` for every term, from a dense density matrix.

        Uses ``tr(rho P_t) = i^{n_Y} sum_b s_t[b] rho[b, b ^ f_t]`` — a single
        fancy-indexed gather per call instead of dense matrix products.
        """
        rho = np.asarray(rho, dtype=complex)
        dim = self._indices.size
        if rho.shape != (dim, dim):
            raise ValueError(f"density matrix must have shape ({dim}, {dim})")
        if not self._paulis:
            return np.zeros(0)
        gathered = rho[self._indices[None, :], self._perm] * self._signs
        return np.real(self._prefactors * gathered.sum(axis=1))


class _PerTermPauliEvaluator(_TermEvaluator):
    """Per-term fallback with the :class:`CompiledPauliOperator` interface.

    Used above :data:`_MAX_COMPILED_QUBITS`, where the compiled O(terms × 2^n)
    tables would dwarf the statevector itself.  Evaluation loops over terms
    (each term is still a vectorized NumPy pass over the amplitudes).
    """

    def expectation_values(self, state) -> np.ndarray:
        from .statevector import apply_pauli_string  # deferred: cycle-free at call time

        psi = _as_amplitudes(state)
        if psi.size != 1 << self._num_qubits:
            raise ValueError(
                f"state has {psi.size} amplitudes, evaluator expects {1 << self._num_qubits}"
            )
        tensor = psi.reshape((2,) * self._num_qubits)
        return np.array(
            [
                np.vdot(tensor, apply_pauli_string(tensor, pauli.label)).real
                for pauli in self._paulis
            ]
        )

    def expectation_values_density(self, rho: np.ndarray) -> np.ndarray:
        # tr(rho P) = sum_b rho[b, b ^ f] P[b ^ f, b]: one O(2^n) gather per term.
        rho = np.asarray(rho, dtype=complex)
        columns = np.arange(rho.shape[0])
        return np.array(
            [
                np.sum(rho[columns, columns ^ pauli.symplectic[0]] * pauli.column_values()).real
                for pauli in self._paulis
            ]
        )


def pauli_evaluator(
    paulis: Iterable[PauliString | str],
    coefficients: Sequence[complex] | np.ndarray | None = None,
    *,
    num_qubits: int | None = None,
) -> CompiledPauliOperator | _PerTermPauliEvaluator:
    """Best evaluator for a term list: compiled when feasible, per-term beyond.

    Falls back to the per-term evaluator past the qubit cap or when the
    compiled tables (``num_terms * 2^n`` elements) would exceed the memory
    budget.  Both returned types share the evaluation interface
    (``expectation_values`` / ``expectation_values_batch`` / ``expectation`` /
    ``expectation_values_density`` plus the term-order properties), so callers
    need not care which they got.
    """
    terms = tuple(p if isinstance(p, PauliString) else PauliString(p) for p in paulis)
    width = terms[0].num_qubits if terms else num_qubits
    if width is not None and (
        width > _MAX_COMPILED_QUBITS or len(terms) << width > _MAX_COMPILED_ELEMENTS
    ):
        return _PerTermPauliEvaluator(terms, coefficients, num_qubits=num_qubits)
    return CompiledPauliOperator(terms, coefficients, num_qubits=num_qubits)


def compiled_pauli_operator(
    operator: PauliOperator,
) -> CompiledPauliOperator | _PerTermPauliEvaluator:
    """Cached expectation evaluator for a :class:`PauliOperator`.

    Returns a :class:`CompiledPauliOperator` (or the per-term fallback above
    the compile cap — same interface).  The evaluator is memoised on the
    operator instance, keyed by a fingerprint of its terms, so repeated
    evaluations (every objective call of every cluster step) pay the
    compilation cost only once.  In-place mutation (``chop``) changes the
    fingerprint and triggers a transparent recompile.
    """
    key = (operator.num_qubits, tuple((p.label, c) for p, c in operator.items()))
    cached = operator.__dict__.get("_compiled_engine_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    coefficients = [operator.coefficient(p) for p in operator.paulis()]
    engine = pauli_evaluator(
        operator.paulis(), coefficients, num_qubits=operator.num_qubits
    )
    operator.__dict__["_compiled_engine_cache"] = (key, engine)
    return engine
