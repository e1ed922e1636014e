"""Tests for Pauli strings and Pauli-sum operators."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_oracle import kron_operator_matrix, kron_string_matrix
from repro.hamiltonians import (
    MolecularFamily,
    get_molecule,
    maxcut_minimization_hamiltonian,
    transverse_field_ising_chain,
)
from repro.quantum.exact import pauli_to_sparse
from repro.quantum.pauli import PauliOperator, PauliString, pauli_matrix, shots_per_evaluation

pauli_labels = st.text(alphabet="IXYZ", min_size=1, max_size=5)

#: Swapping X<->Y and I<->Z keeps a string's flip mask but changes its phase.
_SAME_FLIP = str.maketrans("IXYZ", "ZYXI")
_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def pauli_operators(draw) -> PauliOperator:
    """1-8 qubits, all four letters, complex coefficients, and terms that
    share a flip mask (each drawn label may bring a same-flip partner)."""
    num_qubits = draw(st.integers(1, 8))
    labels = draw(
        st.lists(st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits),
                 min_size=1, max_size=10)
    )
    labels += [label.translate(_SAME_FLIP) for label in labels if draw(st.booleans())]
    coefficients = draw(
        st.lists(st.builds(complex, _finite, _finite),
                 min_size=len(labels), max_size=len(labels))
    )
    return PauliOperator.from_terms(zip(labels, coefficients), num_qubits=num_qubits)


class TestPauliString:
    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            PauliString("")

    def test_rejects_invalid_characters(self):
        with pytest.raises(ValueError):
            PauliString("XQZ")

    def test_basic_properties(self):
        pauli = PauliString("XIZY")
        assert pauli.num_qubits == 4
        assert pauli.weight == 3
        assert pauli.support() == (0, 2, 3)
        assert not pauli.is_identity
        assert pauli[1] == "I"
        assert len(pauli) == 4

    def test_identity_constructor(self):
        identity = PauliString.identity(3)
        assert identity.label == "III"
        assert identity.is_identity

    def test_from_sparse(self):
        pauli = PauliString.from_sparse(4, {0: "X", 3: "Z"})
        assert pauli.label == "XIIZ"

    def test_from_sparse_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PauliString.from_sparse(3, {5: "X"})

    def test_commutation_xx_zz(self):
        assert PauliString("XX").commutes_with(PauliString("ZZ"))
        assert not PauliString("XI").commutes_with(PauliString("ZI"))

    def test_qubit_wise_commutation(self):
        assert PauliString("XI").qubit_wise_commutes_with(PauliString("IX"))
        assert PauliString("XI").qubit_wise_commutes_with(PauliString("XX"))
        assert not PauliString("XX").qubit_wise_commutes_with(PauliString("ZZ"))

    def test_multiply_xy_gives_iz(self):
        phase, result = PauliString("X").multiply(PauliString("Y"))
        assert result.label == "Z"
        assert phase == 1j

    def test_multiply_matches_matrices(self):
        for a, b in [("XY", "YZ"), ("ZI", "XX"), ("YY", "XZ")]:
            phase, product = PauliString(a).multiply(PauliString(b))
            expected = kron_string_matrix(a) @ kron_string_matrix(b)
            np.testing.assert_allclose(
                phase * kron_string_matrix(product), expected, atol=1e-12
            )

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            PauliString("XX").commutes_with(PauliString("X"))

    def test_expand_pads_identities(self):
        assert PauliString("XZ").expand(4).label == "XZII"
        with pytest.raises(ValueError):
            PauliString("XZ").expand(1)

    def test_hashable_and_equal(self):
        assert PauliString("XZ") == PauliString("XZ")
        assert len({PauliString("XZ"), PauliString("XZ"), PauliString("ZX")}) == 2

    @given(pauli_labels)
    @settings(max_examples=40, deadline=None)
    def test_self_product_is_identity(self, label):
        phase, result = PauliString(label).multiply(PauliString(label))
        assert result.is_identity
        assert phase == 1

    @given(pauli_labels, pauli_labels)
    @settings(max_examples=40, deadline=None)
    def test_commutation_is_symmetric(self, a, b):
        if len(a) != len(b):
            return
        assert PauliString(a).commutes_with(PauliString(b)) == PauliString(b).commutes_with(
            PauliString(a)
        )

    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(*[st.text(alphabet="IXYZ", min_size=n, max_size=n)] * 2)
    ))
    @settings(max_examples=60, deadline=None)
    def test_commutation_matches_the_matrices(self, labels):
        a, b = (PauliString(label) for label in labels)
        left, right = kron_string_matrix(a), kron_string_matrix(b)
        assert a.commutes_with(b) == np.allclose(left @ right, right @ left)
        qubit_wise = all(x == y or "I" in (x, y) for x, y in zip(*labels))
        assert a.qubit_wise_commutes_with(b) == qubit_wise


class TestPauliMatrix:
    def test_known_matrices(self):
        np.testing.assert_allclose(pauli_matrix("X"), [[0, 1], [1, 0]])
        np.testing.assert_allclose(pauli_matrix("Z"), [[1, 0], [0, -1]])

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            pauli_matrix("Q")


class TestPauliOperator:
    def test_from_terms_and_lookup(self):
        operator = PauliOperator.from_terms([("XX", 0.5), ("ZZ", -1.0)])
        assert operator.num_qubits == 2
        assert operator.num_terms == 2
        assert operator.coefficient("XX") == 0.5
        assert operator.coefficient("YY") == 0
        assert "ZZ" in operator

    def test_duplicate_terms_accumulate(self):
        operator = PauliOperator(2, {})
        operator = PauliOperator.from_terms([("XX", 0.5), ("XX", 0.25)])
        # dict-based constructor collapses duplicates before reaching the operator;
        # use addition to verify accumulation instead.
        total = PauliOperator.from_terms([("XX", 0.5)]) + PauliOperator.from_terms([("XX", 0.25)])
        assert total.coefficient("XX") == pytest.approx(0.75)

    def test_term_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliOperator(2, {"XXX": 1.0})

    def test_arithmetic(self):
        a = PauliOperator.from_terms([("XI", 1.0), ("ZZ", 2.0)])
        b = PauliOperator.from_terms([("XI", -1.0), ("YY", 3.0)])
        combined = a + b
        assert combined.coefficient("XI") == 0
        assert combined.coefficient("YY") == 3.0
        scaled = a * 2.0
        assert scaled.coefficient("ZZ") == 4.0
        negated = -a
        assert negated.coefficient("XI") == -1.0
        halved = a / 2.0
        assert halved.coefficient("ZZ") == 1.0

    def test_compose_matches_matrices(self):
        a = PauliOperator.from_terms([("XI", 1.0), ("ZZ", 0.5)])
        b = PauliOperator.from_terms([("YI", 2.0), ("IX", -0.5)])
        product = a.compose(b)
        np.testing.assert_allclose(
            kron_operator_matrix(product),
            kron_operator_matrix(a) @ kron_operator_matrix(b),
            atol=1e-12,
        )

    def test_is_hermitian(self):
        assert PauliOperator.from_terms([("XX", 1.0)]).is_hermitian()
        assert not PauliOperator.from_terms([("XX", 1.0j)]).is_hermitian()

    def test_l1_norm(self):
        operator = PauliOperator.from_terms([("XX", 3.0), ("ZZ", -4.0)])
        assert operator.l1_norm() == pytest.approx(7.0)

    def test_chop_and_simplify(self):
        operator = PauliOperator.from_terms([("XX", 1e-15), ("ZZ", 1.0)])
        assert operator.simplify().num_terms == 1

    def test_equals(self):
        a = PauliOperator.from_terms([("XX", 1.0), ("ZZ", 0.0)])
        b = PauliOperator.from_terms([("XX", 1.0)])
        assert a.equals(b)

    def test_coefficient_vector_and_padding(self):
        a = PauliOperator.from_terms([("XX", 1.0)])
        b = PauliOperator.from_terms([("ZZ", 2.0)])
        basis = PauliOperator.term_superset([a, b])
        assert len(basis) == 2
        vector = a.coefficient_vector(basis)
        assert sorted(vector.tolist()) == [0.0, 1.0]
        padded = a.padded(basis)
        assert padded.num_terms == 2

    def test_term_superset_is_deterministic(self):
        a = PauliOperator.from_terms([("XX", 1.0), ("ZI", 1.0)])
        b = PauliOperator.from_terms([("ZZ", 2.0), ("XX", 1.0)])
        assert PauliOperator.term_superset([a, b]) == PauliOperator.term_superset([b, a])

    def test_qubit_wise_commuting_groups_are_valid(self):
        operator = PauliOperator.from_terms(
            [("XX", 1.0), ("ZZ", 1.0), ("XI", 1.0), ("IZ", 1.0), ("YY", 1.0)]
        )
        groups = operator.group_qubit_wise_commuting()
        seen = set()
        for group in groups:
            for i, first in enumerate(group):
                seen.add(first)
                for second in group[i + 1 :]:
                    assert first.qubit_wise_commutes_with(second)
        assert len(seen) == operator.num_terms

    def test_identity_operator_matrix(self):
        operator = PauliOperator.identity(2, 3.0)
        np.testing.assert_allclose(operator.to_matrix(), 3.0 * np.eye(4))

    def test_expectation_against_dense(self, bell_state, small_hamiltonian):
        dense = kron_operator_matrix(small_hamiltonian)
        expected = np.real(bell_state.data.conj() @ dense @ bell_state.data)
        assert small_hamiltonian.expectation(bell_state) == pytest.approx(expected)

    def test_shots_per_evaluation_formula(self):
        operator = PauliOperator.from_terms([("XX", 3.0), ("ZZ", 1.0)])
        assert shots_per_evaluation(operator, 0.01) == pytest.approx((4.0 / 0.01) ** 2)
        with pytest.raises(ValueError):
            shots_per_evaluation(operator, 0.0)

    @given(st.lists(st.tuples(pauli_labels, st.floats(-2, 2)), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_operator_matrix_is_hermitian_for_real_coefficients(self, terms):
        size = len(terms[0][0])
        terms = [(label, coeff) for label, coeff in terms if len(label) == size]
        if size > 3:
            return
        operator = PauliOperator.from_terms(terms, num_qubits=size)
        matrix = operator.to_matrix()
        np.testing.assert_allclose(matrix, matrix.conj().T, atol=1e-10)


class TestSymplecticEncoding:
    def test_masks_put_qubit_zero_in_the_most_significant_bit(self):
        assert PauliString("XIZY").symplectic == (0b1001, 0b0011, 1)
        assert PauliString("IIII").symplectic == (0, 0, 0)
        assert PauliString("YYY").symplectic == (0b111, 0b111, 3)

    @given(pauli_labels)
    @settings(max_examples=50, deadline=None)
    def test_string_matrix_matches_kron_chain(self, label):
        np.testing.assert_array_equal(
            PauliString(label).to_matrix(), kron_string_matrix(label)
        )


class TestMatrixBuilders:
    """Dense and sparse matrices from the masks against the kron-chain oracle."""

    @given(pauli_operators())
    @settings(max_examples=60, deadline=None)
    def test_dense_matrix_is_bitwise_the_kron_sum(self, operator):
        dense = operator.to_matrix()
        assert dense.tobytes() == kron_operator_matrix(operator).tobytes()
        np.testing.assert_allclose(
            pauli_to_sparse(operator).toarray(), dense, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "operator",
        [
            MolecularFamily(get_molecule("LiH")).hamiltonian(1.2),
            MolecularFamily(get_molecule("LiH")).hamiltonian(2.7),
            transverse_field_ising_chain(10, 0.8),
            maxcut_minimization_hamiltonian(
                nx.Graph(
                    [(0, 1, {"weight": 0.7}), (1, 2, {"weight": 1.3}),
                     (2, 3, {"weight": 0.4}), (3, 0, {"weight": 2.1}),
                     (0, 2, {"weight": 0.9}), (3, 4, {"weight": 1.6})]
                )
            ),
        ],
        ids=["lih-1.2", "lih-2.7", "tfim-10", "maxcut-5"],
    )
    def test_catalog_hamiltonians_are_bitwise_the_kron_sum(self, operator):
        assert operator.to_matrix().tobytes() == kron_operator_matrix(operator).tobytes()

    def test_zero_and_cancelling_terms(self):
        operator = PauliOperator(2, {"XY": 0.0, "YX": 1.0, "XX": 2.0, "ZZ": 0.5})
        assert operator.to_matrix().tobytes() == kron_operator_matrix(operator).tobytes()
        empty = PauliOperator.zero(3)
        assert not empty.to_matrix().any()
        assert pauli_to_sparse(empty).nnz == 0
