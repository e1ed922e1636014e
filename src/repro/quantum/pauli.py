"""Pauli-string and Pauli-operator algebra.

This module is the foundation of the quantum substrate.  A VQA task
Hamiltonian is represented as a :class:`PauliOperator` — a weighted sum of
:class:`PauliString` terms — exactly the representation TreeVQA manipulates
when it pads Hamiltonians to a common term basis, builds mixed Hamiltonians,
and computes coefficient-vector distances (paper §5.2.1, §5.2.4).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["PauliString", "PauliOperator", "pauli_matrix", "PAULI_LABELS"]

PAULI_LABELS = ("I", "X", "Y", "Z")

_PAULI_MATRICES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Symplectic encoding tables: a label read as binary digits gives the flip
# mask (X/Y) and the phase mask (Y/Z), qubit 0 as the most significant bit.
_FLIP_DIGITS = str.maketrans("IXYZ", "0110")
_PHASE_DIGITS = str.maketrans("IXYZ", "0011")
# i^{n_Y} for n_Y mod 4, written out so every matrix entry is exact.
_Y_PHASES = (1.0 + 0j, 1j, -1.0 + 0j, -1j)

# Single-qubit Pauli multiplication table: (left, right) -> (phase, result).
_PAULI_PRODUCT = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _popcount(values: np.ndarray) -> np.ndarray:
    """Per-element population count (NumPy >= 2 fast path, else bit folding)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values)
    counts = np.zeros_like(values)
    remaining = values.copy()
    while np.any(remaining):
        counts += remaining & 1
        remaining >>= 1
    return counts


def pauli_matrix(label: str) -> np.ndarray:
    """Return the 2x2 matrix of a single-qubit Pauli label ('I', 'X', 'Y', 'Z')."""
    try:
        return _PAULI_MATRICES[label].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {label!r}") from None


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli string such as ``'XIZY'``.

    The label is read left-to-right as qubit 0 to qubit n-1 (qubit 0 is the
    first character).  Instances are immutable and hashable so they can key
    dictionaries of coefficients.
    """

    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("PauliString label must be non-empty")
        invalid = set(self.label) - set(PAULI_LABELS)
        if invalid:
            raise ValueError(f"invalid Pauli characters {sorted(invalid)} in {self.label!r}")

    # -- basic properties -------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits this string acts on."""
        return len(self.label)

    @property
    def weight(self) -> int:
        """Number of non-identity factors (the Pauli weight)."""
        return sum(1 for c in self.label if c != "I")

    @property
    def is_identity(self) -> bool:
        """True if every factor is the identity."""
        return self.weight == 0

    @cached_property
    def symplectic(self) -> tuple[int, int, int]:
        """``(flip_mask, phase_mask, n_y)``, with qubit 0 as the most significant bit.

        The string acts on a computational basis state as
        ``P|b> = i^{n_y} (-1)^{popcount(b & phase_mask)} |b ^ flip_mask>``;
        every matrix builder and the expectation engine read this encoding.
        """
        return (
            int(self.label.translate(_FLIP_DIGITS), 2),
            int(self.label.translate(_PHASE_DIGITS), 2),
            self.label.count("Y"),
        )

    def column_values(self) -> np.ndarray:
        """The one nonzero entry of each column: ``P[b ^ flip_mask, b]``.

        Allocates 2^n; small n only.
        """
        _, phase, n_y = self.symplectic
        columns = np.arange(1 << self.num_qubits)
        signs = 1.0 - 2.0 * (_popcount(columns & phase) & 1)
        return _Y_PHASES[n_y % 4] * signs

    def support(self) -> tuple[int, ...]:
        """Indices of qubits on which the string acts non-trivially."""
        return tuple(i for i, c in enumerate(self.label) if c != "I")

    def __getitem__(self, qubit: int) -> str:
        return self.label[qubit]

    def __iter__(self) -> Iterator[str]:
        return iter(self.label)

    def __len__(self) -> int:
        return len(self.label)

    def __str__(self) -> str:
        return self.label

    # -- construction helpers ---------------------------------------------

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        """The all-identity string on ``num_qubits`` qubits."""
        return cls("I" * num_qubits)

    @classmethod
    def from_sparse(cls, num_qubits: int, factors: Mapping[int, str]) -> "PauliString":
        """Build a string from a mapping ``{qubit_index: 'X'|'Y'|'Z'}``.

        Unlisted qubits get the identity.
        """
        chars = ["I"] * num_qubits
        for qubit, op in factors.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit index {qubit} out of range for {num_qubits} qubits")
            if op not in ("X", "Y", "Z", "I"):
                raise ValueError(f"invalid Pauli factor {op!r}")
            chars[qubit] = op
        return cls("".join(chars))

    @classmethod
    def single(cls, num_qubits: int, qubit: int, op: str) -> "PauliString":
        """A single non-identity factor ``op`` on ``qubit``."""
        return cls.from_sparse(num_qubits, {qubit: op})

    # -- algebra -----------------------------------------------------------

    def commutes_with(self, other: "PauliString") -> bool:
        """True if the two strings commute (they anti-commute otherwise)."""
        self._check_compatible(other)
        return self._anticommuting_qubits(other).bit_count() % 2 == 0

    def qubit_wise_commutes_with(self, other: "PauliString") -> bool:
        """True if on every qubit the factors are equal or one is identity."""
        self._check_compatible(other)
        return self._anticommuting_qubits(other) == 0

    def _anticommuting_qubits(self, other: "PauliString") -> int:
        """Mask of the qubits whose two factors anticommute (the per-qubit
        symplectic product ``f1·z2 + z1·f2``)."""
        flip, phase, _ = self.symplectic
        other_flip, other_phase, _ = other.symplectic
        return (flip & other_phase) ^ (phase & other_flip)

    def multiply(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        """Return ``(phase, string)`` such that self * other = phase * string."""
        self._check_compatible(other)
        phase: complex = 1
        chars = []
        for a, b in zip(self.label, other.label):
            p, c = _PAULI_PRODUCT[(a, b)]
            phase *= p
            chars.append(c)
        return phase, PauliString("".join(chars))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix representation (2^n x 2^n).  Use only for small n."""
        return PauliOperator(self.num_qubits, {self: 1.0}).to_matrix()

    def expand(self, num_qubits: int) -> "PauliString":
        """Pad with identities on the right up to ``num_qubits`` qubits."""
        if num_qubits < self.num_qubits:
            raise ValueError("cannot shrink a PauliString")
        return PauliString(self.label + "I" * (num_qubits - self.num_qubits))

    def _check_compatible(self, other: "PauliString") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )


class PauliOperator:
    """A weighted sum of Pauli strings: ``H = sum_j c_j P_j``.

    Coefficients are stored in a dictionary keyed by :class:`PauliString`.
    The class supports the operations TreeVQA needs: arithmetic, padding to a
    shared term basis, coefficient-vector extraction, expectation values, and
    exact matrices for verification.
    """

    def __init__(
        self,
        num_qubits: int,
        terms: Mapping[PauliString | str, complex] | None = None,
        *,
        tolerance: float = 0.0,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self._num_qubits = num_qubits
        self._terms: dict[PauliString, complex] = {}
        if terms:
            for key, coeff in terms.items():
                self._add_term(self._coerce(key), complex(coeff))
        if tolerance > 0:
            self.chop(tolerance)

    # -- construction -------------------------------------------------------

    def _coerce(self, key: PauliString | str) -> PauliString:
        pauli = PauliString(key) if isinstance(key, str) else key
        if pauli.num_qubits != self._num_qubits:
            raise ValueError(
                f"term {pauli} has {pauli.num_qubits} qubits, operator has {self._num_qubits}"
            )
        return pauli

    def _add_term(self, pauli: PauliString, coeff: complex) -> None:
        if pauli in self._terms:
            self._terms[pauli] += coeff
        else:
            self._terms[pauli] = coeff

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliOperator":
        """The zero operator."""
        return cls(num_qubits)

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliOperator":
        """``coefficient * I``."""
        return cls(num_qubits, {PauliString.identity(num_qubits): coefficient})

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[str | PauliString, complex]], num_qubits: int | None = None
    ) -> "PauliOperator":
        """Build from an iterable of ``(label, coefficient)`` pairs."""
        terms = list(terms)
        if not terms and num_qubits is None:
            raise ValueError("num_qubits required for an empty term list")
        if num_qubits is None:
            first = terms[0][0]
            num_qubits = len(first if isinstance(first, str) else first.label)
        return cls(num_qubits, dict(terms))

    # -- basic properties ----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits the operator acts on."""
        return self._num_qubits

    @property
    def num_terms(self) -> int:
        """Number of stored Pauli terms (including any zero coefficients)."""
        return len(self._terms)

    @property
    def terms(self) -> dict[PauliString, complex]:
        """A copy of the term dictionary."""
        return dict(self._terms)

    def paulis(self) -> list[PauliString]:
        """The Pauli strings of the operator, in insertion order."""
        return list(self._terms.keys())

    def coefficient(self, pauli: PauliString | str) -> complex:
        """Coefficient of ``pauli`` (0 if absent)."""
        key = PauliString(pauli) if isinstance(pauli, str) else pauli
        return self._terms.get(key, 0.0)

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, pauli: PauliString | str) -> bool:
        key = PauliString(pauli) if isinstance(pauli, str) else pauli
        return key in self._terms

    def __repr__(self) -> str:
        return f"PauliOperator(num_qubits={self._num_qubits}, num_terms={self.num_terms})"

    def is_hermitian(self, tolerance: float = 1e-10) -> bool:
        """True if all coefficients are real to within ``tolerance``."""
        return all(abs(c.imag) <= tolerance for c in self._terms.values())

    def l1_norm(self) -> float:
        """Sum of absolute coefficient values, Σ|c_j| (paper §2.2)."""
        return float(sum(abs(c) for c in self._terms.values()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "PauliOperator") -> "PauliOperator":
        self._check_compatible(other)
        result = PauliOperator(self._num_qubits, self._terms)
        for pauli, coeff in other._terms.items():
            result._add_term(pauli, coeff)
        return result

    def __sub__(self, other: "PauliOperator") -> "PauliOperator":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliOperator":
        if isinstance(scalar, PauliOperator):
            return self.compose(scalar)
        return PauliOperator(
            self._num_qubits, {p: c * scalar for p, c in self._terms.items()}
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: complex) -> "PauliOperator":
        return self * (1.0 / scalar)

    def __neg__(self) -> "PauliOperator":
        return self * -1.0

    def compose(self, other: "PauliOperator") -> "PauliOperator":
        """Operator product ``self @ other`` expanded back to a Pauli sum."""
        self._check_compatible(other)
        result = PauliOperator(self._num_qubits)
        for p1, c1 in self._terms.items():
            for p2, c2 in other._terms.items():
                phase, pauli = p1.multiply(p2)
                result._add_term(pauli, phase * c1 * c2)
        return result

    def chop(self, tolerance: float = 1e-12) -> "PauliOperator":
        """Remove terms with |coefficient| <= tolerance (in place); returns self."""
        self._terms = {p: c for p, c in self._terms.items() if abs(c) > tolerance}
        return self

    def simplify(self, tolerance: float = 1e-12) -> "PauliOperator":
        """Return a copy with negligible terms removed."""
        return PauliOperator(self._num_qubits, self._terms, tolerance=tolerance)

    def equals(self, other: "PauliOperator", tolerance: float = 1e-10) -> bool:
        """Structural equality of the two operators up to ``tolerance``."""
        if self._num_qubits != other._num_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tolerance for k in keys
        )

    # -- TreeVQA-facing operations --------------------------------------------

    def coefficient_vector(self, basis: Iterable[PauliString]) -> np.ndarray:
        """Real coefficient vector in the given ordered term ``basis``.

        Missing terms contribute zero.  This is the padded vector c_i used by
        the ℓ1 similarity metric (paper §5.2.4).
        """
        return np.array([self._terms.get(p, 0.0).real for p in basis], dtype=float)

    def padded(self, basis: Iterable[PauliString]) -> "PauliOperator":
        """Return a copy containing every term of ``basis`` (zero-padded)."""
        result = PauliOperator(self._num_qubits, self._terms)
        for pauli in basis:
            if pauli not in result._terms:
                result._terms[pauli] = 0.0
        return result

    @staticmethod
    def term_superset(operators: Iterable["PauliOperator"]) -> list[PauliString]:
        """Deterministically ordered union of the terms of several operators."""
        seen: dict[PauliString, None] = {}
        for op in operators:
            for pauli in op._terms:
                seen.setdefault(pauli, None)
        return sorted(seen, key=lambda p: p.label)

    def group_qubit_wise_commuting(self) -> list[list[PauliString]]:
        """Greedy grouping of terms into qubit-wise commuting sets.

        Each group can be measured with one circuit (one measurement basis),
        which is how the paper counts circuits per iteration (§1, Fig. 1).
        """
        groups: list[list[PauliString]] = []
        for pauli in sorted(self._terms, key=lambda p: (-p.weight, p.label)):
            placed = False
            for group in groups:
                if all(pauli.qubit_wise_commutes_with(member) for member in group):
                    group.append(pauli)
                    placed = True
                    break
            if not placed:
                groups.append([pauli])
        return groups

    # -- dense/exact helpers ---------------------------------------------------

    def flip_groups(self) -> dict[int, np.ndarray]:
        """The operator as one 2^n value column per distinct flip mask.

        ``H[b ^ f, b] = flip_groups()[f][b]``; each column sums its terms in
        insertion order from +0, exactly as the Kronecker-product sum would,
        so matrices built from it are bitwise-equal to that sum.
        Zero-coefficient terms are left out.
        """
        groups: dict[int, np.ndarray] = {}
        for pauli, coeff in self._terms.items():
            if coeff == 0:
                continue
            flip = pauli.symplectic[0]
            if flip not in groups:
                groups[flip] = np.zeros(1 << self._num_qubits, dtype=complex)
            groups[flip] += coeff * pauli.column_values()
        return groups

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (2^n x 2^n).  Only intended for n <= ~12."""
        dim = 1 << self._num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        columns = np.arange(dim)
        for flip, values in self.flip_groups().items():
            matrix[columns ^ flip, columns] = values
        return matrix

    def expectation(self, statevector: np.ndarray) -> float:
        """Exact expectation value <psi|H|psi> for a statevector."""
        from .statevector import Statevector  # local import to avoid a cycle

        if isinstance(statevector, Statevector):
            return statevector.expectation(self)
        sv = Statevector(np.asarray(statevector, dtype=complex))
        return sv.expectation(self)

    def _check_compatible(self, other: "PauliOperator") -> None:
        if self._num_qubits != other._num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self._num_qubits} vs {other._num_qubits}"
            )


def shots_per_evaluation(operator: PauliOperator, epsilon: float) -> float:
    """Paper §2.2 estimate: N_per_eval ≈ (Σ|c_j|)^2 / ε^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return (operator.l1_norm() ** 2) / (epsilon ** 2)
