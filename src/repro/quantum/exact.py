"""Exact ground-state solvers used as the reference for error and fidelity.

The paper's fidelity metric (§7.2) needs the true ground-state energy E_gs of
every task Hamiltonian.  Small systems are diagonalised densely; larger ones
use sparse Lanczos (``scipy.sparse.linalg.eigsh``) on a sparse matrix built
from the Pauli terms' flip/phase masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .pauli import PauliOperator
from .statevector import Statevector

__all__ = ["GroundStateResult", "ground_state", "ground_state_energy", "pauli_to_sparse"]

_DENSE_QUBIT_LIMIT = 10


@dataclass(frozen=True)
class GroundStateResult:
    """Ground-state energy and state of a Hamiltonian."""

    energy: float
    statevector: Statevector
    gap: float | None = None

    @property
    def num_qubits(self) -> int:
        return self.statevector.num_qubits


def pauli_to_sparse(operator: PauliOperator) -> sparse.csr_matrix:
    """Sparse CSR matrix of a Pauli operator, one 2^n diagonal band per
    distinct flip mask (see :meth:`PauliOperator.flip_groups`)."""
    dim = 1 << operator.num_qubits
    groups = operator.flip_groups()
    if not groups:
        return sparse.csr_matrix((dim, dim), dtype=complex)
    columns = np.arange(dim)
    rows = np.concatenate([columns ^ flip for flip in groups])
    values = np.concatenate(list(groups.values()))
    return sparse.csr_matrix(
        (values, (rows, np.tile(columns, len(groups)))), shape=(dim, dim)
    )


def ground_state(operator: PauliOperator, *, compute_gap: bool = False) -> GroundStateResult:
    """Exact ground state of a Hermitian Pauli operator.

    Dense diagonalisation is used up to 10 qubits, sparse Lanczos beyond.  If
    ``compute_gap`` is true the energy gap to the first excited state is also
    returned (used by the adiabatic-continuity discussion in §3).
    """
    if not operator.is_hermitian():
        raise ValueError("ground_state requires a Hermitian operator")
    if operator.num_terms == 0:
        state = Statevector.zero_state(operator.num_qubits)
        return GroundStateResult(energy=0.0, statevector=state, gap=0.0 if compute_gap else None)

    if operator.num_qubits <= _DENSE_QUBIT_LIMIT:
        eigenvalues, eigenvectors = np.linalg.eigh(operator.to_matrix())
    else:
        k = 2 if compute_gap else 1
        eigenvalues, eigenvectors = eigsh(pauli_to_sparse(operator), k=k, which="SA")
        order = np.argsort(eigenvalues)
        eigenvalues, eigenvectors = eigenvalues[order], eigenvectors[:, order]
    has_gap = compute_gap and len(eigenvalues) > 1
    gap = float(eigenvalues[1] - eigenvalues[0]) if has_gap else None
    return GroundStateResult(
        energy=float(eigenvalues[0]), statevector=Statevector(eigenvectors[:, 0]), gap=gap
    )


def ground_state_energy(operator: PauliOperator) -> float:
    """Just the ground-state energy."""
    return ground_state(operator).energy
