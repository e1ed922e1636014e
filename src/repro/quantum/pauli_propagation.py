"""Heisenberg-picture Pauli propagation: vectorized kernel + execution backend.

Stand-in for PauliPropagation.jl used by the paper for its 28- and 50-qubit
benchmarks (§7.4, Fig. 9).  The observable (a Pauli-sum Hamiltonian) is
conjugated backwards through the circuit gate by gate,

    <psi0| U† H U |psi0>,

keeping the operator in the Pauli basis throughout.  Conjugation through a
k-qubit gate is computed by decomposing ``U† P U`` in the local 4^k Pauli
basis, so the propagation supports every gate in the registry, Clifford or
not.  Truncation by Pauli weight and by coefficient magnitude keeps the term
count bounded (the paper truncates at weight 8).

Two implementations live here:

* :class:`PauliPropagationSimulator` — the original dict-of-label-strings
  reference evaluator (one Python dict op per term per gate).  It is kept as
  the semantic reference and as the baseline the benchmark suite measures
  the vectorized kernel against.
* :class:`CompiledPropagation` — the compile-once vectorized kernel.  Pauli
  strings are packed X/Z bitmask integer arrays (the same representation
  family as :class:`~repro.quantum.engine.CompiledPauliOperator`, extended to
  multi-word ``uint64`` so 50–100 qubit operators fit), and each gate's
  conjugation rule is applied to *all* surviving terms at once via NumPy
  gather/scatter on the packed arrays.  Clifford gates reduce to pure
  bit-twiddling with a sign array (their conjugation is a signed Pauli
  bijection, so the single-branch fast path skips deduplication entirely);
  non-Clifford gates expand through the cached local 4^k decomposition,
  vectorized per branch.  Weight/coefficient truncation runs on the whole
  term array with ``np.abs``/popcount masks instead of per-term Python loops.

:class:`PauliPropagationBackend` promotes the kernel to a first-class
:class:`~repro.quantum.backend.ExecutionBackend` producing the term-vector
payloads the exact estimators already consume, and
:class:`WidthRoutedBackend` ("auto") routes requests wider than the dense
cap to propagation — mirroring how ``CliffordBackend`` routes by angle.

Conjugation tables are cached in two parts (see :func:`conjugation_cache_stats`):
an angle-independent branch *structure* per rotation-gate name (the sparsity
pattern and the ``a + b·cosθ + c·sinθ`` coefficient model, exact for every
Pauli-generator rotation in the registry), plus cheap per-angle coefficient
evaluation.  A fresh rotation angle per optimizer step therefore hits the
cache instead of re-deriving the 4^k decomposition — the old table cache was
keyed on raw float params and missed on every step.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .backend import (
    BACKEND_REGISTRY,
    BackendResult,
    ExecutionBackend,
    ExecutionRequest,
    StatevectorBackend,
    _request_bitstring,
    resolve_program_request,
)
from .circuit import QuantumCircuit
from .engine import compiled_pauli_operator
from .gates import gate_matrix
from .pauli import PauliOperator, _popcount, pauli_matrix
from .program import _CONST, _SLOT, CircuitProgram, _evaluate_spec, program_for_bound_circuit

__all__ = [
    "PauliPropagationConfig",
    "PauliPropagationSimulator",
    "CompiledPropagation",
    "PropagationOutcome",
    "PauliPropagationBackend",
    "WidthRoutedBackend",
    "conjugation_cache_stats",
    "clear_conjugation_cache",
]


@dataclass(frozen=True)
class PauliPropagationConfig:
    """Truncation policy for the propagation."""

    max_weight: int = 8
    coefficient_threshold: float = 1e-8
    max_terms: int = 200_000

    def __post_init__(self) -> None:
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if self.coefficient_threshold < 0:
            raise ValueError("coefficient_threshold must be >= 0")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


# -- local Pauli algebra ------------------------------------------------------
#
# Local Pauli factors are indexed by the digit d = x_bit + 2*z_bit:
# 0 = I, 1 = X, 2 = Z, 3 = Y.  A k-local index is the base-4 number whose
# most significant digit belongs to the gate's first qubit, matching the
# tensor-factor order of the registry's gate matrices.

_DIGIT_LABELS = "IXZY"
_DIGIT_OF_LABEL = {label: digit for digit, label in enumerate(_DIGIT_LABELS)}

#: Branch-compression threshold: coefficients at or below this are structural
#: zeros of the decomposition (numerical residue of the trace computation).
_CHOP = 1e-12

#: Registry gates of the form exp(-i θ/2 G) with G a Pauli string (up to a
#: global phase) — their conjugation coefficients are exactly affine in
#: (cos θ, sin θ) with integer structure constants.
_TRIG_GATES = frozenset({"rx", "ry", "rz", "p", "rzz", "rxx", "ryy"})


@lru_cache(maxsize=8)
def _local_pauli_stack(k: int) -> np.ndarray:
    """``(4^k, 2^k, 2^k)`` stack of local Pauli matrices in digit order."""
    singles = np.stack([pauli_matrix(label) for label in _DIGIT_LABELS])
    stack = np.ones((1, 1, 1), dtype=complex)
    for _ in range(k):
        size = stack.shape[1]
        stack = np.einsum("pij,qkl->pqikjl", stack, singles).reshape(
            stack.shape[0] * 4, size * 2, size * 2
        )
    return stack


def _snap_integers(table: np.ndarray) -> np.ndarray:
    """Snap coefficients within ``_CHOP`` of an integer to that integer.

    The structure constants of Clifford conjugations and Pauli-generator
    rotations are exactly 0/±1; the dense trace computation leaves ~1e-16
    residue on them.  Snapping keeps Clifford propagation exact without
    disturbing genuinely non-integer coefficients (cos/sin of generic
    angles are never within 1e-12 of an integer unless the angle is itself
    within ~1e-6 of a Clifford point, where the snap error is harmless).
    """
    rounded = np.round(table)
    near = np.abs(table - rounded) < _CHOP
    table[near] = rounded[near]
    return table


def _dense_conjugation(matrix: np.ndarray, k: int) -> np.ndarray:
    """Real ``(4^k, 4^k)`` table ``C`` with ``U† P_i U = Σ_o C[i, o] P_o``.

    Rows/columns are in digit order.  Coefficients are real because ``U† P U``
    is Hermitian for Hermitian ``P``; the ~1e-16 imaginary residue is dropped
    (the same Hermitian-observable convention the engine uses).
    """
    stack = _local_pauli_stack(k)
    conjugated = matrix.conj().T @ stack @ matrix
    table = np.einsum("oab,iab->io", stack.conj(), conjugated).real / (2**k)
    return _snap_integers(table)


@dataclass(frozen=True)
class _GateTable:
    """Chop-compressed conjugation branches of one concrete gate.

    Input ``l`` expands to branches ``outputs[offsets[l] : offsets[l] +
    counts[l]]`` with coefficients ``coeffs[...]``.  ``max_branches == 1``
    marks a signed Pauli bijection (Clifford-like): conjugation preserves the
    Hilbert–Schmidt inner product, so distinct inputs map to distinct
    outputs and the vectorized kernel can skip deduplication.
    """

    counts: np.ndarray
    offsets: np.ndarray
    outputs: np.ndarray
    coeffs: np.ndarray
    max_branches: int


def _compress_table(dense: np.ndarray) -> _GateTable:
    keep = np.abs(dense) > _CHOP
    counts = keep.sum(axis=1).astype(np.int64)
    offsets = np.cumsum(counts) - counts
    _, outputs = np.nonzero(keep)
    return _GateTable(
        counts=counts,
        offsets=offsets,
        outputs=outputs.astype(np.int64),
        coeffs=np.ascontiguousarray(dense[keep], dtype=np.float64),
        max_branches=int(counts.max(initial=0)),
    )


@dataclass(frozen=True)
class _TrigStructure:
    """Angle-independent branch structure of a trig-linear rotation gate.

    Candidate branch ``j`` maps local input ``inputs[j]`` to output
    ``outputs[j]`` with coefficient ``alpha[j] + beta[j]·cosθ +
    gamma[j]·sinθ`` — solved exactly from the dense decompositions at
    θ ∈ {0, π, π/2}.  Candidates are sorted by input index.
    """

    k: int
    inputs: np.ndarray
    outputs: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def _build_trig_structure(gate: str) -> _TrigStructure:
    matrix = gate_matrix(gate, 0.0)
    k = int(round(np.log2(matrix.shape[0])))
    table_zero = _dense_conjugation(gate_matrix(gate, 0.0), k)
    table_pi = _dense_conjugation(gate_matrix(gate, np.pi), k)
    table_half = _dense_conjugation(gate_matrix(gate, np.pi / 2), k)
    alpha = _snap_integers((table_zero + table_pi) / 2.0)
    beta = _snap_integers((table_zero - table_pi) / 2.0)
    gamma = _snap_integers(table_half - alpha)
    candidate = (alpha != 0) | (beta != 0) | (gamma != 0)
    inputs, outputs = np.nonzero(candidate)
    return _TrigStructure(
        k=k,
        inputs=inputs.astype(np.int64),
        outputs=outputs.astype(np.int64),
        alpha=alpha[candidate],
        beta=beta[candidate],
        gamma=gamma[candidate],
    )


def _trig_table(structure: _TrigStructure, theta: float) -> _GateTable:
    """Per-angle branch table from a cached structure — no decomposition."""
    coeffs = (
        structure.alpha
        + np.cos(theta) * structure.beta
        + np.sin(theta) * structure.gamma
    )
    keep = np.abs(coeffs) > _CHOP
    inputs = structure.inputs[keep]
    counts = np.bincount(inputs, minlength=4**structure.k).astype(np.int64)
    return _GateTable(
        counts=counts,
        offsets=np.cumsum(counts) - counts,
        outputs=structure.outputs[keep],
        coeffs=coeffs[keep],
        max_branches=int(counts.max(initial=0)),
    )


# -- split conjugation caches -------------------------------------------------

_structure_cache: dict[str, _TrigStructure] = {}
_static_cache: OrderedDict[tuple, _GateTable] = OrderedDict()
_STATIC_CACHE_LIMIT = 4096
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def _trig_structure(gate: str) -> _TrigStructure:
    global _cache_hits, _cache_misses
    structure = _structure_cache.get(gate)
    if structure is not None:
        _cache_hits += 1
        return structure
    _cache_misses += 1
    structure = _build_trig_structure(gate)
    _structure_cache[gate] = structure
    return structure


def _static_table(gate: str, params: tuple[float, ...]) -> _GateTable:
    global _cache_hits, _cache_misses, _cache_evictions
    key = (gate, params)
    table = _static_cache.get(key)
    if table is not None:
        _static_cache.move_to_end(key)
        _cache_hits += 1
        return table
    _cache_misses += 1
    matrix = gate_matrix(gate, *params)
    k = int(round(np.log2(matrix.shape[0])))
    table = _compress_table(_dense_conjugation(matrix, k))
    _static_cache[key] = table
    while len(_static_cache) > _STATIC_CACHE_LIMIT:
        _static_cache.popitem(last=False)
        _cache_evictions += 1
    return table


def _gate_table(gate: str, params: tuple[float, ...]) -> _GateTable:
    """Branch table for a concrete gate instance, through the split caches."""
    if gate in _TRIG_GATES and len(params) == 1:
        return _trig_table(_trig_structure(gate), float(params[0]))
    return _static_table(gate, tuple(float(p) for p in params))


def conjugation_cache_stats() -> dict[str, int]:
    """Counters for the split conjugation caches.

    Mirrors :func:`~repro.quantum.program.program_cache_stats`: ``hits`` /
    ``misses`` / ``evictions`` count structure-or-table lookups (per-angle
    coefficient evaluation is not a lookup — it is the cheap path the split
    exists for), ``size`` is resident structures plus static tables.
    """
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "evictions": _cache_evictions,
        "size": len(_structure_cache) + len(_static_cache),
        "limit": _STATIC_CACHE_LIMIT,
    }


def clear_conjugation_cache() -> None:
    """Drop cached conjugation structures/tables and reset the counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    _structure_cache.clear()
    _static_cache.clear()
    _cache_hits = 0
    _cache_misses = 0
    _cache_evictions = 0


def _conjugation_table(
    gate: str, params: tuple[float, ...], local_label: str
) -> tuple[tuple[str, complex], ...]:
    """Decompose ``U† P U`` for a local Pauli substring P in the local basis.

    Back-compat shim over the split caches: rotation gates resolve their
    angle-independent structure once per gate *name* and evaluate the angle's
    branch coefficients on the fly, so fresh angles no longer rebuild (or
    cache-key) a 4^k decomposition.
    """
    table = _gate_table(gate, tuple(params))
    k = len(local_label)
    index = 0
    for char in local_label:
        index = index * 4 + _DIGIT_OF_LABEL[char]
    start = int(table.offsets[index])
    stop = start + int(table.counts[index])
    results = []
    for output, coeff in zip(table.outputs[start:stop], table.coeffs[start:stop]):
        labels = "".join(
            _DIGIT_LABELS[(int(output) >> (2 * (k - 1 - j))) & 3] for j in range(k)
        )
        results.append((labels, complex(coeff)))
    return tuple(results)


# -- packed Pauli representation ----------------------------------------------

_WORD_BITS = 64


def _num_words(num_qubits: int) -> int:
    return max(1, -(-num_qubits // _WORD_BITS))


def _pack_labels(labels: Sequence[str], num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack label strings into ``(T, W)`` uint64 X/Z bitmask arrays.

    Qubit ``q`` occupies bit ``q % 64`` of word ``q // 64``; ``X`` and ``Y``
    set the X mask, ``Z`` and ``Y`` set the Z mask (the engine's symplectic
    convention, widened to multiple words for the 50–100 qubit band).
    """
    words = _num_words(num_qubits)
    x = np.zeros((len(labels), words), dtype=np.uint64)
    z = np.zeros((len(labels), words), dtype=np.uint64)
    for row, label in enumerate(labels):
        for qubit, char in enumerate(label):
            if char == "I":
                continue
            word, bit = divmod(qubit, _WORD_BITS)
            mask = np.uint64(1) << np.uint64(bit)
            if char != "Z":
                x[row, word] |= mask
            if char != "X":
                z[row, word] |= mask
    return x, z


def _unpack_labels(x: np.ndarray, z: np.ndarray, num_qubits: int) -> list[str]:
    """Inverse of :func:`_pack_labels` (diagnostics and tests)."""
    labels = []
    for row in range(x.shape[0]):
        chars = []
        for qubit in range(num_qubits):
            word, bit = divmod(qubit, _WORD_BITS)
            xb = int(x[row, word] >> np.uint64(bit)) & 1
            zb = int(z[row, word] >> np.uint64(bit)) & 1
            chars.append(_DIGIT_LABELS[xb + 2 * zb])
        labels.append("".join(chars))
    return labels


def _pack_bits(bits: str) -> np.ndarray:
    """``(W,)`` uint64 mask of the qubits in |1> for a bitstring."""
    packed = np.zeros(_num_words(len(bits)), dtype=np.uint64)
    for qubit, bit in enumerate(bits):
        if bit == "1":
            word, position = divmod(qubit, _WORD_BITS)
            packed[word] |= np.uint64(1) << np.uint64(position)
    return packed


# -- compiled vectorized propagation ------------------------------------------

#: Tape-step parameter resolution kinds.
_STEP_STATIC = 0  #: constant params — branch table precomputed at compile time
_STEP_TRIG = 1  #: single slotted angle on a trig-linear gate — cached structure
_STEP_GENERIC = 2  #: anything else — per-row params through the static table cache


@dataclass
class _Step:
    """One reversed-tape gate application, precompiled for the packed kernel."""

    gate: str
    kind: int
    words: tuple[int, ...]  #: word index per gate qubit
    shifts: tuple[int, ...]  #: bit position per gate qubit
    clear: np.ndarray  #: (W,) uint64 mask of the gate's qubit bits
    x_patch: np.ndarray  #: (4^k, W) uint64 X bits per local output index
    z_patch: np.ndarray  #: (4^k, W) uint64 Z bits per local output index
    table: _GateTable | None = None  #: static kind only
    structure: _TrigStructure | None = None  #: trig kind only
    specs: tuple[tuple, ...] = ()  #: trig: the single slot spec; generic: all


@dataclass
class PropagationOutcome:
    """Result of propagating one parameter row (see :meth:`CompiledPropagation.run`)."""

    values: np.ndarray  #: (M,) expectation per coefficient column
    final_terms: int
    peak_terms: int
    truncated_weight_terms: int
    truncated_coefficient_terms: int

    def as_metadata(self) -> dict[str, int]:
        return {
            "final_terms": self.final_terms,
            "peak_terms": self.peak_terms,
            "truncated_weight_terms": self.truncated_weight_terms,
            "truncated_coefficient_terms": self.truncated_coefficient_terms,
        }


class CompiledPropagation:
    """Compile-once vectorized Heisenberg propagation of one operator through
    one circuit-program structure.

    Compilation fixes everything angle-independent: the packed initial term
    arrays, the reversed gate tape with per-gate bit patches/masks, and the
    branch *structures*.  Only rotation-angle branch coefficients vary per
    parameter row, so one compiled instance serves a whole ``(B, params)``
    batch row by row.

    ``per_term=True`` propagates a coefficient *matrix* with one column per
    operator term (columns start as the identity), so a single propagation
    yields the per-term expectation vector the exact estimators consume.
    ``per_term=False`` propagates the summed observable (one column carrying
    the operator coefficients) — the legacy ``expectation()`` semantics.
    """

    def __init__(
        self,
        program: CircuitProgram,
        operator: PauliOperator,
        config: PauliPropagationConfig | None = None,
        *,
        per_term: bool = False,
    ) -> None:
        if operator.num_qubits != program.num_qubits:
            raise ValueError("operator and program qubit counts differ")
        self.program = program
        self.operator = operator
        self.config = config or PauliPropagationConfig()
        self.per_term = per_term
        self.num_qubits = program.num_qubits
        self._words = _num_words(self.num_qubits)
        if per_term:
            labels = [pauli.label for pauli in operator.paulis()]
            initial = np.eye(len(labels), dtype=np.float64)
        else:
            pairs = [(p.label, coeff) for p, coeff in operator.items() if coeff != 0]
            labels = [label for label, _ in pairs]
            initial = np.array([[float(np.real(c))] for _, c in pairs], dtype=np.float64)
            initial = initial.reshape(len(labels), 1)
        self.num_columns = initial.shape[1]
        self._x0, self._z0 = _pack_labels(labels, self.num_qubits)
        self._c0 = initial
        self._steps = [
            self._compile_entry(entry) for entry in reversed(program.tape)
        ]

    @classmethod
    def for_circuit(
        cls,
        circuit: QuantumCircuit,
        operator: PauliOperator,
        config: PauliPropagationConfig | None = None,
        *,
        per_term: bool = False,
    ) -> tuple["CompiledPropagation", np.ndarray]:
        """Compile a bound circuit via the persistent program cache.

        Returns the compiled propagation plus the circuit's parameter row.
        """
        if not circuit.is_bound():
            raise ValueError("circuit has unbound parameters; call circuit.bind first")
        program, row = program_for_bound_circuit(circuit)
        return cls(program, operator, config, per_term=per_term), row

    # -- compilation ----------------------------------------------------------

    def _compile_entry(self, entry) -> _Step:
        qubits = entry.qubits
        k = len(qubits)
        words = tuple(q // _WORD_BITS for q in qubits)
        shifts = tuple(q % _WORD_BITS for q in qubits)
        clear = np.zeros(self._words, dtype=np.uint64)
        for word, shift in zip(words, shifts):
            clear[word] |= np.uint64(1) << np.uint64(shift)
        x_patch = np.zeros((4**k, self._words), dtype=np.uint64)
        z_patch = np.zeros_like(x_patch)
        for local in range(4**k):
            for j, (word, shift) in enumerate(zip(words, shifts)):
                digit = (local >> (2 * (k - 1 - j))) & 3
                mask = np.uint64(1) << np.uint64(shift)
                if digit & 1:
                    x_patch[local, word] |= mask
                if digit >> 1:
                    z_patch[local, word] |= mask
        step = _Step(
            gate=entry.gate,
            kind=_STEP_GENERIC,
            words=words,
            shifts=shifts,
            clear=clear,
            x_patch=x_patch,
            z_patch=z_patch,
            specs=entry.specs,
        )
        if all(spec[0] == _CONST for spec in entry.specs):
            params = tuple(float(spec[1]) for spec in entry.specs)
            step.kind = _STEP_STATIC
            step.table = _gate_table(entry.gate, params)
        elif (
            entry.gate in _TRIG_GATES
            and len(entry.specs) == 1
            and entry.specs[0][0] == _SLOT
        ):
            step.kind = _STEP_TRIG
            step.structure = _trig_structure(entry.gate)
        return step

    def _step_table(self, step: _Step, row: np.ndarray) -> _GateTable:
        if step.kind == _STEP_STATIC:
            return step.table
        if step.kind == _STEP_TRIG:
            return _trig_table(step.structure, _evaluate_spec(step.specs[0], row))
        params = tuple(float(_evaluate_spec(spec, row)) for spec in step.specs)
        return _gate_table(step.gate, params)

    # -- propagation ----------------------------------------------------------

    def run(
        self,
        parameters: np.ndarray | None = None,
        initial_bits: str | None = None,
    ) -> PropagationOutcome:
        """Propagate one parameter row and evaluate on ``|initial_bits>``."""
        x, z, coeffs, stats = self._propagate_packed(parameters)
        values = self._evaluate(x, z, coeffs, initial_bits)
        return PropagationOutcome(
            values=values,
            final_terms=int(x.shape[0]),
            peak_terms=stats["peak_terms"],
            truncated_weight_terms=stats["truncated_weight_terms"],
            truncated_coefficient_terms=stats["truncated_coefficient_terms"],
        )

    def expectation(
        self,
        parameters: np.ndarray | None = None,
        initial_bits: str | None = None,
    ) -> float:
        """Summed expectation value (legacy simulator semantics)."""
        values = self.run(parameters, initial_bits).values
        return float(values.sum())

    def propagate_terms(
        self, parameters: np.ndarray | None = None
    ) -> tuple[list[str], np.ndarray]:
        """(labels, coefficient matrix) of the propagated operator — tests
        and diagnostics; the hot path stays packed."""
        x, z, coeffs, _ = self._propagate_packed(parameters)
        return _unpack_labels(x, z, self.num_qubits), coeffs

    def _parameter_row(self, parameters: np.ndarray | None) -> np.ndarray:
        row = (
            np.zeros(0, dtype=np.float64)
            if parameters is None
            else np.asarray(parameters, dtype=np.float64).ravel()
        )
        if row.size != self.program.num_parameters:
            raise ValueError(
                f"program expects {self.program.num_parameters} parameters, "
                f"got {row.size}"
            )
        return row

    def _propagate_packed(self, parameters: np.ndarray | None):
        row = self._parameter_row(parameters)
        x = self._x0.copy()
        z = self._z0.copy()
        coeffs = self._c0.copy()
        stats = {
            "peak_terms": int(x.shape[0]),
            "truncated_weight_terms": 0,
            "truncated_coefficient_terms": 0,
        }
        for step in self._steps:
            table = self._step_table(step, row)
            x, z, coeffs = self._apply(step, table, x, z, coeffs)
            stats["peak_terms"] = max(stats["peak_terms"], int(x.shape[0]))
            x, z, coeffs = self._truncate(x, z, coeffs, stats)
        return x, z, coeffs, stats

    def _apply(self, step, table, x, z, coeffs):
        terms = x.shape[0]
        if terms == 0:
            return x, z, coeffs
        local = np.zeros(terms, dtype=np.int64)
        for word, shift in zip(step.words, step.shifts):
            shift64 = np.uint64(shift)
            xb = (x[:, word] >> shift64) & np.uint64(1)
            zb = (z[:, word] >> shift64) & np.uint64(1)
            local = (local << 2) | (xb + np.uint64(2) * zb).astype(np.int64)
        inverse_clear = ~step.clear
        if table.max_branches == 1:
            # Signed Pauli bijection: pure bit-twiddling plus a sign/factor
            # gather — no term growth, no deduplication.
            flat = table.offsets[local]
            out = table.outputs[flat]
            x = (x & inverse_clear) | step.x_patch[out]
            z = (z & inverse_clear) | step.z_patch[out]
            coeffs = coeffs * table.coeffs[flat][:, None]
            return x, z, coeffs
        branches = table.counts[local]
        total = int(branches.sum())
        source = np.repeat(np.arange(terms), branches)
        run_starts = np.cumsum(branches) - branches
        intra = np.arange(total, dtype=np.int64) - np.repeat(run_starts, branches)
        flat = np.repeat(table.offsets[local], branches) + intra
        out = table.outputs[flat]
        x = (x[source] & inverse_clear) | step.x_patch[out]
        z = (z[source] & inverse_clear) | step.z_patch[out]
        coeffs = coeffs[source] * table.coeffs[flat][:, None]
        return self._deduplicate(x, z, coeffs)

    def _deduplicate(self, x, z, coeffs):
        total = x.shape[0]
        if total == 0:
            return x, z, coeffs
        key = np.concatenate([x, z], axis=1)
        order = np.lexsort(key.T[::-1])
        sorted_key = key[order]
        boundary = np.empty(total, dtype=bool)
        boundary[0] = True
        boundary[1:] = np.any(sorted_key[1:] != sorted_key[:-1], axis=1)
        starts = np.flatnonzero(boundary)
        merged = np.add.reduceat(coeffs[order], starts, axis=0)
        words = self._words
        return (
            np.ascontiguousarray(sorted_key[starts, :words]),
            np.ascontiguousarray(sorted_key[starts, words:]),
            merged,
        )

    def _truncate(self, x, z, coeffs, stats):
        config = self.config
        terms = x.shape[0]
        if terms == 0:
            return x, z, coeffs
        magnitude = np.max(np.abs(coeffs), axis=1)
        keep = magnitude > config.coefficient_threshold
        dropped = terms - int(keep.sum())
        if dropped:
            stats["truncated_coefficient_terms"] += dropped
            x, z, coeffs, magnitude = x[keep], z[keep], coeffs[keep], magnitude[keep]
        weight = _popcount(x | z).sum(axis=1).astype(np.int64)
        keep = weight <= config.max_weight
        dropped = x.shape[0] - int(keep.sum())
        if dropped:
            stats["truncated_weight_terms"] += dropped
            x, z, coeffs, magnitude = x[keep], z[keep], coeffs[keep], magnitude[keep]
        excess = x.shape[0] - config.max_terms
        if excess > 0:
            stats["truncated_coefficient_terms"] += excess
            top = np.argpartition(magnitude, excess)[excess:]
            top.sort()
            x, z, coeffs = x[top], z[top], coeffs[top]
        return x, z, coeffs

    def _evaluate(self, x, z, coeffs, initial_bits: str | None) -> np.ndarray:
        bits = initial_bits or "0" * self.num_qubits
        if len(bits) != self.num_qubits:
            raise ValueError("initial_bits length must equal the number of qubits")
        columns = coeffs.shape[1] if coeffs.ndim == 2 else self._c0.shape[1]
        if x.shape[0] == 0:
            return np.zeros(columns, dtype=np.float64)
        diagonal = ~np.any(x != 0, axis=1)
        flipped = _popcount(z & _pack_bits(bits)).sum(axis=1).astype(np.int64)
        signs = np.where((flipped & 1) == 1, -1.0, 1.0)
        signs[~diagonal] = 0.0
        return signs @ coeffs


# -- dict-based reference simulator -------------------------------------------


class PauliPropagationSimulator:
    """Estimate <psi0|U† H U|psi0> by back-propagating H through U.

    The original per-term dict evaluator, kept as the semantic reference for
    :class:`CompiledPropagation` and as the baseline of the propagation
    benchmark.  Truncation counters reset on every :meth:`propagate` call, so
    they describe the most recent propagation (they previously accumulated
    silently across calls).
    """

    def __init__(self, config: PauliPropagationConfig | None = None) -> None:
        self.config = config or PauliPropagationConfig()
        self.truncated_weight_terms = 0
        self.truncated_coefficient_terms = 0

    def propagate(
        self, operator: PauliOperator, circuit: QuantumCircuit
    ) -> dict[str, complex]:
        """Return the Heisenberg-evolved operator as a ``{label: coefficient}`` dict."""
        if not circuit.is_bound():
            raise ValueError("circuit has unbound parameters; call circuit.bind first")
        if operator.num_qubits != circuit.num_qubits:
            raise ValueError("operator and circuit qubit counts differ")
        self.truncated_weight_terms = 0
        self.truncated_coefficient_terms = 0
        terms: dict[str, complex] = {
            pauli.label: complex(coeff) for pauli, coeff in operator.items() if coeff != 0
        }
        for inst in reversed(circuit.instructions):
            terms = self._apply_gate(terms, inst.gate, inst.qubits, tuple(inst.params))
            terms = self._truncate(terms)
        return terms

    def expectation(
        self,
        operator: PauliOperator,
        circuit: QuantumCircuit,
        initial_bits: str | None = None,
    ) -> float:
        """Expectation value for a computational-basis initial state.

        ``initial_bits`` is a bitstring like ``'0011'`` (default all zeros).
        Only I/Z Pauli factors contribute; Z on a qubit in |1> contributes -1.
        """
        terms = self.propagate(operator, circuit)
        num_qubits = operator.num_qubits
        bits = initial_bits or "0" * num_qubits
        if len(bits) != num_qubits:
            raise ValueError("initial_bits length must equal the number of qubits")
        value = 0.0
        for label, coeff in terms.items():
            contribution = 1.0
            for qubit, op in enumerate(label):
                if op == "I":
                    continue
                if op in ("X", "Y"):
                    contribution = 0.0
                    break
                contribution *= -1.0 if bits[qubit] == "1" else 1.0
            value += (coeff * contribution).real
        return float(value)

    # -- internals ----------------------------------------------------------

    def _apply_gate(
        self,
        terms: dict[str, complex],
        gate: str,
        qubits: tuple[int, ...],
        params: tuple[float, ...],
    ) -> dict[str, complex]:
        new_terms: dict[str, complex] = {}
        for label, coeff in terms.items():
            local_label = "".join(label[q] for q in qubits)
            if local_label == "I" * len(qubits):
                new_terms[label] = new_terms.get(label, 0.0) + coeff
                continue
            for new_local, factor in _conjugation_table(gate, params, local_label):
                chars = list(label)
                for position, qubit in enumerate(qubits):
                    chars[qubit] = new_local[position]
                new_label = "".join(chars)
                new_terms[new_label] = new_terms.get(new_label, 0.0) + coeff * factor
        return new_terms

    def _truncate(self, terms: dict[str, complex]) -> dict[str, complex]:
        config = self.config
        kept: dict[str, complex] = {}
        for label, coeff in terms.items():
            if abs(coeff) <= config.coefficient_threshold:
                self.truncated_coefficient_terms += 1
                continue
            weight = sum(1 for c in label if c != "I")
            if weight > config.max_weight:
                self.truncated_weight_terms += 1
                continue
            kept[label] = coeff
        if len(kept) > config.max_terms:
            ranked = sorted(kept.items(), key=lambda item: abs(item[1]), reverse=True)
            dropped = len(kept) - config.max_terms
            self.truncated_coefficient_terms += dropped
            kept = dict(ranked[: config.max_terms])
        return kept


# -- execution backend --------------------------------------------------------


class PauliPropagationBackend(ExecutionBackend):
    """Vectorized Pauli propagation as a first-class execution backend.

    Requests are grouped by program fingerprint and operator term set: one
    :class:`CompiledPropagation` (gate tape, packed initial terms, branch
    structures) serves the whole ``(B, params)`` batch — only the per-row
    rotation-angle branch coefficients differ.  Results are term-vector
    payloads in the request operator's term order (identity pinned to 1.0),
    exactly what the exact/shot-noise estimators consume; no state is ever
    materialized, which is what opens the 50–100 qubit band.

    Each result's ``metadata`` carries the propagation's truncation counts
    and term statistics so truncation error is observable per round.
    """

    name = "pauli_propagation"
    provides_states = False
    accepts_propagation_config = True

    def __init__(
        self,
        propagation: PauliPropagationConfig | None = None,
        *,
        compiled_cache_limit: int = 64,
    ) -> None:
        self.config = propagation or PauliPropagationConfig()
        self._compiled: OrderedDict[tuple, CompiledPropagation] = OrderedDict()
        self._compiled_cache_limit = compiled_cache_limit
        self.batches_run = 0
        self.requests_run = 0
        self.program_requests = 0
        self.truncated_weight_terms = 0
        self.truncated_coefficient_terms = 0

    def _compiled_for(
        self, program: CircuitProgram, operator: PauliOperator
    ) -> CompiledPropagation:
        key = (program.fingerprint, tuple(p.label for p in operator.paulis()))
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = CompiledPropagation(
                program, operator, self.config, per_term=True
            )
            self._compiled[key] = compiled
            while len(self._compiled) > self._compiled_cache_limit:
                self._compiled.popitem(last=False)
        else:
            self._compiled.move_to_end(key)
        return compiled

    def run_batch(
        self, requests: Sequence[ExecutionRequest], *, need_states: bool = False
    ) -> list[BackendResult]:
        requests = list(requests)
        if need_states:
            raise ValueError(
                "pauli_propagation cannot attach statevectors; pair "
                "state-consuming estimators with a dense backend"
            )
        self.batches_run += 1
        self.requests_run += len(requests)
        resolved = []
        groups: dict[tuple, list[int]] = {}
        for index, request in enumerate(requests):
            if request.program is not None:
                self.program_requests += 1
            program, parameters = resolve_program_request(request)
            bits = _request_bitstring(request)
            if bits is None:
                raise ValueError(
                    "pauli_propagation requires a computational-basis initial "
                    "state (got a general superposition)"
                )
            resolved.append((program, parameters, bits))
            key = (program.fingerprint, tuple(p.label for p in request.operator.paulis()))
            groups.setdefault(key, []).append(index)
        results: list[BackendResult | None] = [None] * len(requests)
        for indices in groups.values():
            first = requests[indices[0]]
            compiled = self._compiled_for(resolved[indices[0]][0], first.operator)
            for index in indices:
                request = requests[index]
                _, parameters, bits = resolved[index]
                outcome = compiled.run(parameters, bits)
                engine = compiled_pauli_operator(request.operator)
                vector = np.array(outcome.values, dtype=np.float64)
                vector[engine.identity_mask] = 1.0
                self.truncated_weight_terms += outcome.truncated_weight_terms
                self.truncated_coefficient_terms += outcome.truncated_coefficient_terms
                results[index] = BackendResult(
                    term_basis=engine.paulis,
                    term_vector=vector,
                    state=None,
                    backend_name=self.name,
                    tag=request.tag,
                    metadata=outcome.as_metadata(),
                )
        return results  # type: ignore[return-value]

    def propagation_stats(self) -> dict[str, int]:
        """Aggregate truncation counters across every request served."""
        return {
            "requests": self.requests_run,
            "truncated_weight_terms": self.truncated_weight_terms,
            "truncated_coefficient_terms": self.truncated_coefficient_terms,
        }


#: Widest system the dense statevector path handles comfortably (2^20 complex
#: amplitudes per request); beyond it the auto router sends requests to
#: propagation.
_DENSE_WIDTH_LIMIT = 20


class WidthRoutedBackend(ExecutionBackend):
    """Route requests by qubit count: dense below the cap, propagation above.

    Mirrors how :class:`~repro.quantum.backend.CliffordBackend` routes by
    rotation angle: each request is classified independently, the two halves
    run through their backend, and results are stitched back in request
    order.

    The router advertises ``provides_states = True``: a ``need_states``
    dispatch (a sampling round) is kept entirely on the dense tier, where
    prepared states exist — wide requests cannot produce states at all, so a
    ``need_states`` batch containing one raises with an actionable message
    instead of silently routing it to propagation (whose term-vector payload
    a states-consuming estimator cannot use).
    """

    name = "auto"
    provides_states = True
    accepts_propagation_config = True

    def __init__(
        self,
        propagation: PauliPropagationConfig | None = None,
        *,
        dense: ExecutionBackend | None = None,
        dense_width_limit: int = _DENSE_WIDTH_LIMIT,
    ) -> None:
        self.dense = dense if dense is not None else StatevectorBackend()
        self.propagation = PauliPropagationBackend(propagation)
        self.dense_width_limit = dense_width_limit
        self.dense_requests = 0
        self.propagation_requests = 0

    def run_batch(
        self, requests: Sequence[ExecutionRequest], *, need_states: bool = False
    ) -> list[BackendResult]:
        requests = list(requests)
        narrow: list[int] = []
        wide: list[int] = []
        for index, request in enumerate(requests):
            if request.num_qubits > self.dense_width_limit:
                wide.append(index)
            else:
                narrow.append(index)
        if need_states and wide:
            widths = sorted({requests[index].num_qubits for index in wide})
            raise ValueError(
                "backend 'auto' can attach prepared states only on its dense "
                f"tier (<= {self.dense_width_limit} qubits); got "
                f"need_states=True with {len(wide)} request(s) of width "
                f"{widths} — state-consuming estimators (e.g. sampling) need "
                "dense execution: lower the qubit count, raise "
                "dense_width_limit, or switch to a term-vector estimator for "
                "wide circuits"
            )
        self.dense_requests += len(narrow)
        self.propagation_requests += len(wide)
        results: list[BackendResult | None] = [None] * len(requests)
        if narrow:
            for index, result in zip(
                narrow,
                self.dense.run_batch(
                    [requests[i] for i in narrow], need_states=need_states
                ),
            ):
                results[index] = result
        if wide:
            for index, result in zip(
                wide,
                self.propagation.run_batch([requests[i] for i in wide]),
            ):
                results[index] = result
        return results  # type: ignore[return-value]

    def propagation_stats(self) -> dict[str, int]:
        stats = self.propagation.propagation_stats()
        stats["dense_requests"] = self.dense_requests
        stats["routed_requests"] = self.propagation_requests
        return stats


BACKEND_REGISTRY["pauli_propagation"] = PauliPropagationBackend
BACKEND_REGISTRY["auto"] = WidthRoutedBackend
