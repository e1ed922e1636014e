"""Test-only reference matrices built as Kronecker-product chains.

The program builds Pauli matrices from each string's flip/phase masks; these
helpers build them the textbook way, one ``np.kron`` per qubit, so tests
check the program against an independent construction rather than against
itself.
"""

from __future__ import annotations

import numpy as np

from repro.quantum.pauli import PauliOperator, PauliString, pauli_matrix


def kron_string_matrix(pauli: PauliString | str) -> np.ndarray:
    """Dense matrix of one Pauli string, qubit 0 as the leftmost factor."""
    label = pauli if isinstance(pauli, str) else pauli.label
    matrix = np.array([[1.0 + 0j]])
    for letter in label:
        matrix = np.kron(matrix, pauli_matrix(letter))
    return matrix


def kron_operator_matrix(operator: PauliOperator) -> np.ndarray:
    """Dense matrix of a Pauli sum: terms added in insertion order from zero."""
    dim = 2 ** operator.num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for pauli, coeff in operator.items():
        matrix += coeff * kron_string_matrix(pauli)
    return matrix
