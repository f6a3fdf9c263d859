"""Tests for DD arithmetic: add, multiply, kron, inner products."""

import numpy as np
import pytest

from repro.circuits import gates
from repro.dd import DDPackage

from ..conftest import random_state


class TestAddition:
    def test_vector_addition_matches_numpy(self, package, np_rng):
        a = random_state(np_rng, 4)
        b = random_state(np_rng, 4)
        result = package.add(package.from_state_vector(a), package.from_state_vector(b))
        assert np.allclose(package.to_state_vector(result), a + b)

    def test_add_zero_left_and_right(self, package, np_rng):
        edge = package.from_state_vector(random_state(np_rng, 4))
        assert package.add(package.zero_edge, edge) is edge
        assert package.add(edge, package.zero_edge) is edge

    def test_snapped_zero_weight_edge_adds_as_zero(self, package, np_rng):
        # A non-terminal edge whose weight snapped to the canonical zero
        # (what Edge.weighted leaves for a near-zero product) is the zero
        # vector: adding it must not divide by its weight.
        edge = package.from_state_vector(random_state(np_rng, 3))
        other = package.from_state_vector(random_state(np_rng, 3))
        snapped = other.weighted(
            package.complex_table, package.complex_table.lookup(1e-300)
        )
        assert not snapped.is_terminal and snapped.weight.is_zero()
        assert package.add(snapped, edge) is edge
        assert package.add(edge, snapped) == edge

    def test_cancellation_gives_zero_edge(self, package, np_rng):
        vector = random_state(np_rng, 4)
        edge = package.from_state_vector(vector)
        negated = package.negate(edge)
        result = package.add(edge, negated)
        assert result.is_zero

    def test_matrix_addition_matches_numpy(self, package, np_rng):
        a = np_rng.normal(size=(16, 16)) + 1j * np_rng.normal(size=(16, 16))
        b = np_rng.normal(size=(16, 16)) + 1j * np_rng.normal(size=(16, 16))
        result = package.add(
            package.from_operator_matrix(a), package.from_operator_matrix(b)
        )
        assert np.allclose(package.to_operator_matrix(result), a + b)

    def test_add_commutes(self, package, np_rng):
        a = package.from_state_vector(random_state(np_rng, 4))
        b = package.from_state_vector(random_state(np_rng, 4))
        ab = package.add(a, b)
        ba = package.add(b, a)
        assert np.allclose(
            package.to_state_vector(ab), package.to_state_vector(ba)
        )

    def test_scalar_factored_caching(self, package, np_rng):
        # a + b and 2a + 2b share the same cache entry (common factor strip).
        a = package.from_state_vector(random_state(np_rng, 4))
        b = package.from_state_vector(random_state(np_rng, 4))
        package.add(a, b)
        hits_before = package._add_table.hits
        package.add(package.scale(a, 2.0), package.scale(b, 2.0))
        assert package._add_table.hits > hits_before


class TestScale:
    def test_scale_matches_numpy(self, package, np_rng):
        vector = random_state(np_rng, 4)
        edge = package.scale(package.from_state_vector(vector), 0.5 - 2j)
        assert np.allclose(package.to_state_vector(edge), (0.5 - 2j) * vector)

    def test_scale_by_zero(self, package, np_rng):
        edge = package.from_state_vector(random_state(np_rng, 4))
        assert package.scale(edge, 0.0).is_zero

    def test_negate(self, package, np_rng):
        vector = random_state(np_rng, 4)
        edge = package.negate(package.from_state_vector(vector))
        assert np.allclose(package.to_state_vector(edge), -vector)


class TestMatrixVectorMultiply:
    def test_matches_numpy_random(self, package, np_rng):
        matrix = np_rng.normal(size=(16, 16)) + 1j * np_rng.normal(size=(16, 16))
        vector = random_state(np_rng, 4)
        result = package.multiply(
            package.from_operator_matrix(matrix), package.from_state_vector(vector)
        )
        assert np.allclose(package.to_state_vector(result), matrix @ vector)

    def test_zero_operator_and_zero_state(self, package, np_rng):
        state = package.from_state_vector(random_state(np_rng, 4))
        assert package.multiply(package.zero_edge, state).is_zero
        assert package.multiply(package.identity(), package.zero_edge).is_zero

    def test_gate_sequence_matches_numpy(self, package):
        state = package.zero_state()
        dense = np.zeros(16, dtype=complex)
        dense[0] = 1.0
        operations = [
            (gates.H, 0, {}),
            (gates.X, 1, {0: 1}),
            (gates.T, 2, {}),
            (gates.Z, 3, {1: 1}),
            (gates.H, 2, {}),
        ]
        for matrix, target, controls in operations:
            state = package.multiply(package.gate(matrix, target, controls), state)
            from .test_package_matrices import dense_controlled

            dense = dense_controlled(matrix, target, controls, 4) @ dense
        assert np.allclose(package.to_state_vector(state), dense)

    def test_norm_preserved_by_unitaries(self, package, np_rng):
        state = package.from_state_vector(random_state(np_rng, 4))
        for target in range(4):
            state = package.multiply(package.gate(gates.H, target), state)
        assert package.squared_norm(state) == pytest.approx(1.0)


class TestMatrixMatrixMultiply:
    def test_matches_numpy(self, package, np_rng):
        a = np_rng.normal(size=(16, 16)) + 1j * np_rng.normal(size=(16, 16))
        b = np_rng.normal(size=(16, 16)) + 1j * np_rng.normal(size=(16, 16))
        result = package.multiply_matrices(
            package.from_operator_matrix(a), package.from_operator_matrix(b)
        )
        assert np.allclose(package.to_operator_matrix(result), a @ b)

    def test_gate_composition(self, package):
        hh = package.multiply_matrices(package.gate(gates.H, 0), package.gate(gates.H, 0))
        assert np.allclose(package.to_operator_matrix(hh), np.eye(16))

    def test_identity_neutral(self, package, np_rng):
        a = np_rng.normal(size=(16, 16))
        edge = package.from_operator_matrix(a)
        result = package.multiply_matrices(package.identity(), edge)
        assert np.allclose(package.to_operator_matrix(result), a)


class TestKron:
    def test_vector_kron_matches_numpy(self, np_rng):
        package = DDPackage(5)
        top_vec = random_state(np_rng, 2)
        bottom_vec = random_state(np_rng, 3)
        top = package.from_state_vector(top_vec)
        bottom = package.from_state_vector(bottom_vec)
        result = package.kron(top, bottom, 3)
        assert np.allclose(
            package.to_state_vector(result, 5), np.kron(top_vec, bottom_vec)
        )

    def test_matrix_kron_matches_numpy(self, np_rng):
        package = DDPackage(4)
        a = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
        b = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
        result = package.kron(
            package.from_operator_matrix(a), package.from_operator_matrix(b), 2
        )
        assert np.allclose(package.to_operator_matrix(result, 4), np.kron(a, b))


class TestInnerProduct:
    def test_matches_numpy(self, package, np_rng):
        a = random_state(np_rng, 4)
        b = random_state(np_rng, 4)
        value = package.inner_product(
            package.from_state_vector(a), package.from_state_vector(b)
        )
        assert value == pytest.approx(np.vdot(a, b))

    def test_conjugate_linearity(self, package, np_rng):
        a = random_state(np_rng, 4)
        b = random_state(np_rng, 4)
        ea, eb = package.from_state_vector(a), package.from_state_vector(b)
        forward = package.inner_product(ea, eb)
        backward = package.inner_product(eb, ea)
        assert forward == pytest.approx(np.conj(backward))

    def test_self_inner_product_is_one(self, package, np_rng):
        edge = package.from_state_vector(random_state(np_rng, 4))
        assert package.inner_product(edge, edge) == pytest.approx(1.0 + 0j)

    def test_orthogonal_states(self, package):
        a = package.basis_state([0, 0, 0, 0])
        b = package.basis_state([1, 0, 0, 0])
        assert package.inner_product(a, b) == 0.0

    def test_fidelity(self, package, np_rng):
        a = random_state(np_rng, 4)
        b = random_state(np_rng, 4)
        fidelity = package.fidelity(
            package.from_state_vector(a), package.from_state_vector(b)
        )
        assert fidelity == pytest.approx(abs(np.vdot(a, b)) ** 2)

    def test_zero_edge_inner_product(self, package, np_rng):
        edge = package.from_state_vector(random_state(np_rng, 4))
        assert package.inner_product(package.zero_edge, edge) == 0.0


class TestDepthMismatchErrors:
    def test_add_depth_mismatch(self, package):
        # Build a depth-2 vector inside the 4-qubit package via product_state.
        shallow = package.product_state([(1, 0), (1, 0)])
        full = package.zero_state()
        with pytest.raises(ValueError):
            package.add(full, shallow)
