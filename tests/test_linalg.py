"""Tests for the dense linear algebra primitives."""

import tracemalloc

import numpy as np
import pytest

from switchcap.errors import (
    DimensionMismatchError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
)
from switchcap.linalg import (
    gram,
    hermitian_spectrum,
    partial_trace,
    validate_density_matrix,
    validate_spectrum,
    von_neumann_entropy,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

# -sum(p log2 p) for {5/8, 3/8}, evaluated with 40-digit arithmetic.
ENTROPY_5_8 = 0.95443400292496496


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestGram:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 12), (5, 40)])
    def test_matches_conjugate_product(self, shape):
        x = random_complex(shape, seed=sum(shape))
        g = gram(x)
        assert g.shape == (shape[1], shape[1])
        assert g.dtype == complex
        assert np.abs(g - x.conj().T @ x).max() < 1e-12 * shape[0]

    def test_non_contiguous_matches_contiguous_copy(self):
        x = random_complex((9, 30), seed=4).T
        assert not x.flags.c_contiguous
        assert np.array_equal(gram(x), gram(np.ascontiguousarray(x)))

    def test_memory_does_not_copy_the_input(self):
        x = random_complex((2**17, 8), seed=5)
        assert x.flags.c_contiguous and x.nbytes == 16 * 2**20
        tracemalloc.start()
        try:
            gram(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestHermitianSpectrum:
    def test_diagonal_input(self):
        values = hermitian_spectrum(np.diag([0.375, 0.25, 0.25, 0.125]))
        assert np.allclose(values, [0.375, 0.25, 0.25, 0.125], atol=1e-14)

    def test_qubit_closed_form(self):
        # (I + 0.6 X) / 2 has eigenvalues (1 +/- 0.6) / 2
        rho = (np.eye(2) + 0.6 * PAULI_X) / 2
        assert np.allclose(hermitian_spectrum(rho), [0.8, 0.2], atol=1e-14)

    def test_two_order_switch_output_spectrum(self):
        # joint output for two orders, qubit target, pure input:
        # blocks I/4 on the diagonal and rho/8 off the diagonal
        rho = np.diag([1.0, 0.0]).astype(complex)
        state = np.block([[np.eye(2) / 4, rho / 8], [rho / 8, np.eye(2) / 4]])
        values = hermitian_spectrum(state)
        assert np.allclose(values, [3 / 8, 1 / 4, 1 / 4, 1 / 8], atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_matches_lapack_on_random_hermitian(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        got = hermitian_spectrum(h)
        expected = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.abs(got - expected).max() < 1e-12

    def test_eigenvalue_sum_reproduces_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            h = (a + a.conj().T) / 2
            assert abs(hermitian_spectrum(h).sum() - np.trace(h).real) < 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        h = (a + a.conj().T) / 2
        for c in (-2.5, 0.75, 10.0):
            shifted = hermitian_spectrum(h + c * np.eye(7))
            assert np.abs(shifted - (hermitian_spectrum(h) + c)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 5, 12, 48, 240])
    def test_symmetrizes_like_the_half_sum(self, n):
        # a sub-tolerance asymmetry is dropped as (h + h^dagger) * 0.5 drops
        # it: the same floating-point operations, so the same bits
        a = random_complex((n, n), seed=n)
        h = (a + a.conj().T) / 2 + 1e-12 * random_complex((n, n), seed=n + 1)
        before = h.copy()
        expected = np.linalg.eigvalsh((h + h.conj().T) * 0.5)[::-1]
        assert np.array_equal(hermitian_spectrum(h), expected)
        assert np.array_equal(h, before)

    def test_reports_the_asymmetry(self):
        m = np.array([[0.0, 0.5], [-0.25j, 0.0]])
        with pytest.raises(NotHermitianError, match="by 5.590e-01"):
            hermitian_spectrum(m)

    def test_rejects_an_overflowing_sum(self):
        # h + h^dagger overflows to inf; NaN eigenvalues are not returned
        big = np.array([[0.0, 1.7e308], [1.7e308, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotHermitianError):
            hermitian_spectrum(big)

    def test_memory_holds_two_copies_and_a_real_array(self):
        # beside its input: the working copy, one contiguous conjugate copy
        # and the asymmetry's magnitudes, 2.5 copies where the half sum took
        # 3.  48 and 72 sit below NumPy's temporary elision, where a pass
        # through a transposed view held ~4 copies.
        peaks = {}
        for n in (48, 72, 300):
            h = random_complex((n, n), seed=9)
            h = (h + h.conj().T) / 2
            hermitian_spectrum(h)
            tracemalloc.start()
            try:
                hermitian_spectrum(h)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[n] = peak / h.nbytes
        assert max(peaks.values()) < 2.6, peaks

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError):
            hermitian_spectrum(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            hermitian_spectrum(m)

    def test_lapack_failure_raises_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergenceError, match="did not converge"):
            hermitian_spectrum(PAULI_X)

    def test_trace_drift_raises_no_convergence(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def drift(a):
            return eigvalsh(a) + 1e-6

        monkeypatch.setattr(np.linalg, "eigvalsh", drift)
        with pytest.raises(NoConvergenceError, match="drifted from the trace"):
            hermitian_spectrum(PAULI_X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotHermitianError):
            hermitian_spectrum(np.array([[bad, 1.0], [1.0, 0.0]]))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.array([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_two_point_frozen_value(self):
        got = von_neumann_entropy(np.array([5 / 8, 3 / 8]))
        assert got == pytest.approx(ENTROPY_5_8, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
    def test_flat_spectrum_gives_log_dim(self, d):
        flat = np.full(d, 1.0 / d)
        assert von_neumann_entropy(flat) == pytest.approx(np.log2(d), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        p = rng.exponential(size=6)
        p /= p.sum()
        reference = von_neumann_entropy(p)
        for _ in range(10):
            assert von_neumann_entropy(rng.permutation(p)) == reference

    def test_small_negatives_clamped(self):
        got = von_neumann_entropy(np.array([1.0 + 5e-11, -5e-11]))
        assert got >= 0.0
        assert got < 1e-8

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidSpectrumError):
            von_neumann_entropy(np.array([0.7, 0.2]))

    def test_rejects_large_negative(self):
        with pytest.raises(InvalidSpectrumError):
            von_neumann_entropy(np.array([1.001, -0.001]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidSpectrumError):
            von_neumann_entropy(np.array([1.0, 0.0, bad]))

    @pytest.mark.parametrize(
        "bad", [[], [np.nan, np.nan], [1.001, -0.001], [0.7, 0.2]], ids=str
    )
    def test_validate_spectrum_owns_the_checks(self, bad):
        with pytest.raises(InvalidSpectrumError):
            validate_spectrum(np.array(bad))
        with pytest.raises(InvalidSpectrumError):
            von_neumann_entropy(np.array(bad))


def random_spectra(r, k, seed):
    """(r, k) stack of spectra, some rows with zeros and a jitter negative."""
    rng = np.random.default_rng(seed)
    stack = rng.exponential(size=(r, k))
    stack[::3, k // 2 :] = 0.0
    stack[1::4, -1] = -5e-11
    stack /= stack.sum(axis=1, keepdims=True)
    return stack


def bad_stacks():
    """Stacks in which one row, or the row length, is invalid."""
    nan, negative, short = (random_spectra(7, 6, 31) for _ in range(3))
    nan[3, 1] = np.nan
    negative[5, 0] = -1e-3
    short[2] *= 0.9
    return [
        pytest.param(nan, id="nan"),
        pytest.param(negative, id="negative"),
        pytest.param(short, id="sum-0.9"),
        pytest.param(np.zeros((7, 0)), id="k-0"),
    ]


class TestSpectrumStacks:
    @pytest.mark.parametrize(("r", "k"), [(1, 2), (65, 12), (40, 9), (8, 48)])
    def test_rows_match_single_spectra_bit_for_bit(self, r, k):
        # and the sum over only the positive entries, to rounding
        stack = random_spectra(r, k, 17 + k)
        entropies = von_neumann_entropy(stack)
        assert entropies.shape == (r,)
        for i in range(r):
            single = von_neumann_entropy(stack[i])
            assert isinstance(single, float)
            assert entropies[i] == single
            p = stack[i][stack[i] > 0.0]
            assert abs(single + (p * np.log2(p)).sum()) < 1e-14

    @pytest.mark.parametrize("stack", bad_stacks())
    def test_one_bad_row_fails_the_stack(self, stack):
        with pytest.raises(InvalidSpectrumError):
            validate_spectrum(stack)
        with pytest.raises(InvalidSpectrumError):
            von_neumann_entropy(stack)

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)], ids=str)
    def test_rejects_other_ranks(self, shape):
        with pytest.raises(InvalidSpectrumError, match="shape"):
            validate_spectrum(np.full(shape, 0.125))
        with pytest.raises(InvalidSpectrumError, match="shape"):
            von_neumann_entropy(np.full(shape, 0.125))


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rho_a = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        rho_b = np.array([[0.5, 0.2], [0.2, 0.5]])
        joint = np.kron(rho_a, rho_b)
        assert np.abs(partial_trace(joint, 2, 2, "A") - rho_a).max() < 1e-14
        assert np.abs(partial_trace(joint, 2, 2, "B") - rho_b).max() < 1e-14

    def test_random_product_states_exact(self):
        rng = np.random.default_rng(31)
        for da, db in [(2, 2), (2, 3), (3, 2), (4, 3)]:
            a = rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da))
            b = rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db))
            rho_a = a @ a.conj().T
            rho_a /= np.trace(rho_a).real
            rho_b = b @ b.conj().T
            rho_b /= np.trace(rho_b).real
            joint = np.kron(rho_a, rho_b)
            assert np.abs(partial_trace(joint, da, db, "A") - rho_a).max() < 1e-12
            assert np.abs(partial_trace(joint, da, db, "B") - rho_b).max() < 1e-12

    def test_switch_output_reduces_to_control_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        state = np.block([[np.eye(2) / 4, rho / 8], [rho / 8, np.eye(2) / 4]])
        reduced = partial_trace(state, 2, 2, "A")
        assert np.abs(reduced - np.array([[0.5, 0.125], [0.125, 0.5]])).max() < 1e-14

    def test_maximally_mixed(self):
        got = partial_trace(np.eye(4) / 4, 2, 2, "B")
        assert np.abs(got - np.eye(2) / 2).max() < 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        for keep in ("A", "B"):
            reduced = partial_trace(rho, 2, 3, keep)
            assert abs(np.trace(reduced).real - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4) / 4, 2, 3, "A")

    def test_bad_keep_flag(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, 2, 2, "C")


class TestValidateDensityMatrix:
    def test_accepts_valid_state(self):
        validate_density_matrix(np.eye(3) / 3)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidStateError):
            validate_density_matrix(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_rejects_empty_state(self):
        with pytest.raises(InvalidStateError, match="nonempty square"):
            validate_density_matrix(np.zeros((0, 0)))
