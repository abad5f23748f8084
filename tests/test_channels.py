"""Tests for the depolarizing channel and its unitary operator basis."""

import itertools
import tracemalloc

import numpy as np
import pytest

import switchcap
from switchcap.channels import (
    MAX_DIM,
    MIN_DIM,
    UnitaryBasis,
    check_completeness,
    depolarize,
    weyl_basis,
)
from switchcap.errors import DimensionMismatchError, DimensionOutOfRangeError
from switchcap.switch import build_switch_kraus, cyclic_orders, random_density_matrix


class TestWeylBasis:
    def test_qubit_operators_are_paulis_up_to_phase(self):
        ops = weyl_basis(2).ops
        eye = np.eye(2)
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.abs(ops[0] - eye).max() < 1e-15
        assert np.abs(ops[1] - z).max() < 1e-15
        assert np.abs(ops[2] - x).max() < 1e-15
        assert np.abs(ops[3] - x @ z).max() < 1e-15

    def test_qutrit_pairwise_trace_table(self):
        basis = weyl_basis(3)
        # brute-force Tr(U_i^dagger U_j) over all 81 pairs
        for i, u in enumerate(basis.ops):
            for j, v in enumerate(basis.ops):
                overlap = np.trace(u.conj().T @ v)
                expected = 3.0 if i == j else 0.0
                assert abs(overlap - expected) < 1e-12

    @pytest.mark.parametrize("d", range(MIN_DIM, MAX_DIM + 1))
    def test_unitarity_and_orthogonality_all_dims(self, d):
        basis = weyl_basis(d)
        eye = np.eye(d)
        for u in basis.ops:
            assert np.abs(u.conj().T @ u - eye).max() < 1e-12
        gram = np.einsum("aij,bij->ab", basis.ops.conj(), basis.ops)
        assert np.abs(gram - d * np.eye(d * d)).max() < 1e-11

    @pytest.mark.parametrize("d", range(MIN_DIM, MAX_DIM + 1))
    def test_elements_are_shift_times_clock(self, d):
        # element a d + b is X^a Z^b: the shift's a-th power times the
        # diagonal phase ladder w^(b k)
        k = np.arange(d)
        omega = np.exp(2j * np.pi / d)
        ops = weyl_basis(d).ops
        for a, b in itertools.product(range(d), repeat=2):
            expected = np.roll(np.eye(d), a, axis=0) @ np.diag(omega ** (b * k))
            assert np.abs(ops[a * d + b] - expected).max() < 1e-14
            # and the literal entries w^(b k) at (k + a mod d, k), bit for bit
            literal = np.zeros((d, d), dtype=complex)
            for col in range(d):
                literal[(col + a) % d, col] = omega ** (b * col)
            assert np.array_equal(ops[a * d + b], literal)

    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_first_element_is_identity(self, d):
        assert np.array_equal(weyl_basis(d).ops[0], np.eye(d))

    @pytest.mark.parametrize("d", [0, 1, 17])
    def test_dimension_out_of_range(self, d):
        with pytest.raises(DimensionOutOfRangeError):
            weyl_basis(d)

    def test_basis_is_immutable(self):
        basis = weyl_basis(2)
        with pytest.raises(ValueError):
            basis.ops[0, 0, 0] = 0.0

    def test_equality_and_hash_are_identity(self):
        # an array has no single truth value, so equal operators do not make
        # equal bases
        basis = weyl_basis(2)
        assert basis == basis
        assert weyl_basis(2) != weyl_basis(2)
        assert hash(basis) == hash(basis)
        assert {basis: 1}[basis] == 1

    def test_fields_cannot_be_assigned_or_deleted(self):
        basis = weyl_basis(2)
        ops = basis.ops
        for field, value in (("dim", 3), ("ops", np.zeros((9, 3, 3)))):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(basis, field, value)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(basis, field)
        assert basis.dim == 2 and basis.ops is ops

    def test_repr_names_the_fields(self):
        assert repr(weyl_basis(2)).startswith("UnitaryBasis(dim=2, ops=array([[[")

    def test_positional_and_keyword_construction(self):
        ops = weyl_basis(2).ops
        by_position, by_keyword = UnitaryBasis(2, ops), UnitaryBasis(dim=2, ops=ops)
        assert np.array_equal(by_position.ops, by_keyword.ops)
        # each basis holds its own copy
        assert by_position.ops is not ops and by_position != by_keyword

    def test_wrong_operator_count_rejected(self):
        with pytest.raises(DimensionMismatchError):
            UnitaryBasis(dim=2, ops=np.zeros((3, 2, 2), dtype=complex))


class TestDepolarize:
    def test_pure_qubit_goes_to_maximally_mixed(self):
        basis = weyl_basis(2)
        for vec in ([1.0, 0.0], [0.0, 1.0], [1 / np.sqrt(2), 1j / np.sqrt(2)]):
            rho = np.outer(vec, np.conj(vec))
            assert np.abs(depolarize(basis, rho) - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed_is_fixed_point(self, d):
        basis = weyl_basis(d)
        mixed = np.eye(d) / d
        assert np.abs(depolarize(basis, mixed) - mixed).max() < 1e-12

    def test_random_qutrit_against_kraus_sum_oracle(self):
        basis = weyl_basis(3)
        rho = random_density_matrix(3, np.random.default_rng(7))
        # literal python-loop Kraus sum, independent of the einsum path
        oracle = np.zeros((3, 3), dtype=complex)
        for u in basis.ops:
            oracle += u @ rho @ u.conj().T
        oracle /= 9.0
        got = depolarize(basis, rho)
        assert np.abs(got - oracle).max() < 1e-14
        assert np.abs(got - np.eye(3) / 3).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_output_independent_of_input(self, d):
        basis = weyl_basis(d)
        rng = np.random.default_rng(d)
        rho1 = random_density_matrix(d, rng)
        rho2 = random_density_matrix(d, rng)
        assert np.abs(depolarize(basis, rho1) - depolarize(basis, rho2)).max() < 1e-12

    def test_trace_preserving_and_unital(self):
        basis = weyl_basis(4)
        rho = random_density_matrix(4, np.random.default_rng(9))
        out = depolarize(basis, rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.abs(depolarize(basis, np.eye(4) / 4) - np.eye(4) / 4).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            depolarize(weyl_basis(2), np.eye(3) / 3)


class TestCheckCompleteness:
    def test_scaled_unitary_basis_is_complete(self):
        basis = weyl_basis(2)
        kraus = [u / 2.0 for u in basis.ops]
        assert check_completeness(kraus) < 1e-14

    def test_switch_kraus_two_channels(self):
        kraus = build_switch_kraus(cyclic_orders(2), weyl_basis(2))
        assert check_completeness(kraus) < 1e-12

    def test_deliberately_incomplete_set(self):
        assert check_completeness([np.eye(2) / np.sqrt(2)]) == pytest.approx(0.5)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            check_completeness([])

    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            check_completeness([np.eye(2), np.eye(3)])

    def test_non_square_stack_rejected(self):
        with pytest.raises(DimensionMismatchError):
            check_completeness(np.zeros((4, 2, 3), dtype=complex))

    @pytest.mark.parametrize("shape", [(5, 3, 3), (40, 7, 7), (1, 12, 12)])
    @pytest.mark.parametrize("family", ["random", "near-complete"])
    def test_matches_literal_sum_on_complex_stacks(self, shape, family):
        # Weyl stacks sum to a real matrix, so only complex, non-unitary
        # operators exercise the imaginary part of the sum.
        if family == "random":
            ops = random_stack(shape, seed=sum(shape))
        else:
            ops = near_complete_stack(shape, seed=sum(shape))
        literal = sum(k.conj().T @ k for k in ops) - np.eye(shape[1])
        assert abs(check_completeness(ops) - np.abs(literal).max()) < 1e-12

    def test_block_stack_gives_the_worst_block(self):
        # block 0 is the complete scaled Weyl family, block 1 is not
        complete = weyl_basis(2).ops / 2.0
        incomplete = near_complete_stack((4, 2, 2), seed=11)
        ops = np.stack([complete, incomplete], axis=1)
        assert ops.shape == (4, 2, 2, 2)
        literal = [
            np.abs(sum(k.conj().T @ k for k in ops[:, b]) - np.eye(2)).max() for b in range(2)
        ]
        assert literal[0] < 1e-14 < literal[1]
        assert abs(check_completeness(ops) - max(literal)) < 1e-15
        assert check_completeness(ops[:, :1]) < 1e-14

    @pytest.mark.parametrize("shape", [(4, 2, 2, 3), (4, 2, 2, 2, 2), (4, 2)])
    def test_block_stack_shapes_rejected(self, shape):
        with pytest.raises(DimensionMismatchError):
            check_completeness(np.zeros(shape, dtype=complex))

    def test_transposed_stack_matches_contiguous_copy(self):
        ops = random_stack((20, 6, 6), seed=3).transpose(0, 2, 1)
        assert not ops.flags.c_contiguous
        assert check_completeness(ops) == check_completeness(np.ascontiguousarray(ops))

    def test_memory_does_not_copy_the_stack(self):
        ops = random_stack((16384, 8, 8), seed=5)
        assert ops.nbytes == 16 * 2**20
        tracemalloc.start()
        try:
            check_completeness(ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_memory_holds_one_block_copy_at_a_time(self):
        # each block of a (K, 2, n, n) stack is copied for its Gram product;
        # the first copy is released before the second is made
        ops = random_stack((4096, 2, 8, 8), seed=6)
        tracemalloc.start()
        try:
            check_completeness(ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * ops.nbytes

    def test_switch_family_is_read_in_place(self):
        # build_switch_kraus stores its orders as contiguous slabs, so no
        # block is copied: the peak is a small fraction of one block
        kraus = build_switch_kraus(cyclic_orders(4), weyl_basis(3))
        block_bytes = kraus[:, 0].nbytes
        tracemalloc.start()
        try:
            residual = check_completeness(kraus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * block_bytes
        assert residual == check_completeness(np.ascontiguousarray(kraus))


def random_stack(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def near_complete_stack(shape, seed):
    """(I + i eps R_k) / sqrt(K) for real R_k.

    The residual matrix is i eps/K sum_k (R_k - R_k^T) + O(eps^2), so its
    largest entry is imaginary, where a random stack's is on the diagonal.
    """
    k, n, _ = shape
    r = np.random.default_rng(seed).standard_normal(shape)
    return (np.eye(n) + 0.01j * r) / np.sqrt(k)


def test_package_exports_resolve():
    assert "weyl_basis" in switchcap.__all__
    for name in switchcap.__all__:
        assert hasattr(switchcap, name), name
