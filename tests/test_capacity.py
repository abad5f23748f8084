"""Tests for the closed-form capacity expressions."""

import math
import pickle

import numpy as np
import pytest

from switchcap.capacity import (
    DIM_RANGE,
    CapacityReport,
    _check_point,
    _holevo_block,
    analytic_output_state,
    asymptotic_limit,
    control_entropy,
    det_factorization_residual,
    holevo,
    output_spectrum,
    s_min,
)
from switchcap.channels import weyl_basis
from switchcap.errors import (
    DimensionMismatchError,
    DimensionOutOfRangeError,
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
)
from switchcap.linalg import von_neumann_entropy
from switchcap.switch import ControlAmplitudes, apply_switch, cyclic_orders, random_density_matrix

# 40-digit reference values for spot checks.
S_MIN_2_2 = 1.9056390622295664
S_MIN_3_2 = 2.4182958340544895
S_CONTROL_2_2 = 0.95443400292496496
S_CONTROL_2_3 = 0.99107605983822217
CHI_2_2 = 0.048794940695398533
CHI_3_2 = 0.081704165945510485
LIMIT_2 = 0.31127812445913286
LIMIT_3 = 0.19715972342414919
LIMIT_4 = 0.13447053550223066

TABLE_OF_RATES = {
    (2, 2): 0.0488,
    (3, 2): 0.0817,
    (4, 2): 0.1058,
    (5, 2): 0.1245,
    (6, 2): 0.1395,
    (2, 3): 0.0183,
    (3, 3): 0.0326,
    (4, 3): 0.0441,
    (5, 3): 0.0537,
    (6, 3): 0.0619,
}


def det_cofactor(m):
    """Recursive cofactor expansion; fine for the 4x4 cases."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * det_cofactor(minor)
    return total


def det_row_reduction(m):
    """Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) == 0.0:
            return 0.0 + 0.0j
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        for row in range(col + 1, n):
            a[row, col:] -= a[row, col] / a[col, col] * a[col, col:]
    return det


def _reference_holevo(m_orders, dim):
    """holevo as written before its report skipped the generated __new__."""
    _check_point(m_orders, dim)
    m, d = m_orders, dim
    if m == 1:
        smin, scontrol = math.log2(d), 0.0
    else:
        md2 = m * d * d
        top = (d + m - 1) / md2
        low = (d - 1) / md2
        smin = -(
            top * math.log2(top)
            + (m - 1) * (d - 1) / md2 * math.log2(low)
            + (d - 1) / d * math.log2(1.0 / (m * d))
        )
        top = (m - 1 + d * d) / md2
        rest = (d * d - 1) / md2
        scontrol = -(top * math.log2(top) + (m - 1) * rest * math.log2(rest))
    chi = math.log2(dim) + scontrol - smin
    return CapacityReport(m_orders, dim, smin, scontrol, chi)


def random_mixed_spectrum(dim, rng):
    p = rng.exponential(size=dim)
    p /= p.sum()
    return np.sort(p)[::-1]


class TestOutputSpectrum:
    def test_two_orders_pure_qubit(self):
        got = output_spectrum(2, 2, np.array([1.0, 0.0]))
        assert np.allclose(got, [3 / 8, 1 / 4, 1 / 4, 1 / 8], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_single_order_is_flat(self, d):
        got = output_spectrum(1, d, np.full(d, 1.0 / d))
        assert np.allclose(got, np.full(d, 1.0 / d), atol=1e-15)

    def test_three_orders_mixed_qubit_matches_product_structure(self):
        # for the maximally mixed input the joint state factorizes into
        # (reduced control state) (x) I/d
        got = output_spectrum(3, 2, np.array([0.5, 0.5]))
        control = np.array([1 / 2, 1 / 4, 1 / 4])  # reduced control spectrum at M=3, d=2
        expected = np.sort(np.outer(control, [0.5, 0.5]).ravel())[::-1]
        assert np.allclose(got, expected, atol=1e-15)

    @pytest.mark.parametrize("m,d", [(1, 2), (2, 2), (5, 3), (40, 4)])
    def test_sums_to_one(self, m, d):
        spectrum = output_spectrum(m, d, random_mixed_spectrum(d, np.random.default_rng(m * d)))
        assert spectrum.shape == (m * d,)
        assert abs(spectrum.sum() - 1.0) < 1e-12

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidSpectrumError):
            output_spectrum(2, 3, np.array([1.0, 0.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidSpectrumError):
            output_spectrum(2, 2, np.array([0.9, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidSpectrumError, match="NaN or infinite"):
            output_spectrum(2, 2, np.array([bad, bad]))


class TestMinEntropy:
    def test_frozen_values(self):
        assert s_min(2, 2) == pytest.approx(S_MIN_2_2, abs=1e-14)
        assert s_min(3, 2) == pytest.approx(S_MIN_3_2, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_single_order_collapses_to_log_dim(self, d):
        assert s_min(1, d) == math.log2(d)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_entropy_of_pure_input_spectrum(self, m, d):
        pure = np.zeros(d)
        pure[0] = 1.0
        via_spectrum = von_neumann_entropy(output_spectrum(m, d, pure))
        assert abs(via_spectrum - s_min(m, d)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            s_min(0, 2)
        with pytest.raises(DomainError):
            s_min(2, 1)


class TestControlEntropy:
    def test_frozen_values(self):
        assert control_entropy(2, 2) == pytest.approx(S_CONTROL_2_2, abs=1e-14)
        assert control_entropy(2, 3) == pytest.approx(S_CONTROL_2_3, abs=1e-14)

    def test_three_orders_qubit_is_exactly_three_halves(self):
        # spectrum {1/2, 1/4, 1/4}
        assert control_entropy(3, 2) == pytest.approx(1.5, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 9])
    def test_single_order_is_pure(self, d):
        assert control_entropy(1, d) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 4, 11])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mixed_input_factorization(self, m, d):
        # entropy(output on I/d) = control entropy + log2(d)
        flat = np.full(d, 1.0 / d)
        lhs = von_neumann_entropy(output_spectrum(m, d, flat))
        assert abs(lhs - (control_entropy(m, d) + math.log2(d))) < 1e-12


class TestHolevo:
    def test_frozen_values(self):
        assert holevo(2, 2).chi == pytest.approx(CHI_2_2, abs=1e-14)
        assert holevo(3, 2).chi == pytest.approx(CHI_3_2, abs=1e-14)

    @pytest.mark.parametrize("point,expected", sorted(TABLE_OF_RATES.items()))
    def test_reference_rate_table(self, point, expected):
        m, d = point
        assert holevo(m, d).chi == pytest.approx(expected, abs=1e-4)

    def test_report_fields_in_order(self):
        report = holevo(3, 2)
        assert report._fields == ("m_orders", "dim", "s_min", "s_control", "chi")
        assert tuple(report) == (3, 2, report.s_min, report.s_control, report.chi)
        assert report.chi == pytest.approx(CHI_3_2, abs=1e-14)

    @pytest.mark.parametrize("field", ["m_orders", "dim", "s_min", "s_control", "chi"])
    def test_report_is_immutable(self, field):
        with pytest.raises(AttributeError):
            setattr(holevo(2, 2), field, 0)

    @staticmethod
    def _assert_matches_reference(points):
        for m, d in points:
            report = holevo(m, d)
            assert type(report) is CapacityReport
            assert report == _reference_holevo(m, d)

    def test_bits_match_reference_at_wide_dims_and_large_orders(self):
        orders = (1, 2, 3, 7, 255, 256, 257, 1000, 20000, 999999, 10**6)
        self._assert_matches_reference((m, d) for d in range(2, 65) for m in orders)

    def test_bits_match_reference_on_the_ci_grid(self):
        self._assert_matches_reference((m, d) for d in range(2, 17) for m in range(1, 2001))

    def test_report_behaves_as_its_named_tuple(self):
        # _fields is pinned by test_report_fields_in_order
        report = holevo(24, 3)
        assert list(report._asdict().items()) == [
            ("m_orders", 24),
            ("dim", 3),
            ("s_min", report[2]),
            ("s_control", report[3]),
            ("chi", report[4]),
        ]
        zeroed = report._replace(chi=0.0)
        assert type(zeroed) is CapacityReport
        assert zeroed == (24, 3, report.s_min, report.s_control, 0.0)
        restored = pickle.loads(pickle.dumps(report))
        assert type(restored) is CapacityReport
        assert restored == report

    def test_numpy_integers_are_accepted(self):
        assert holevo(np.int64(3), 2) == holevo(3, 2)
        assert holevo(3, np.int32(2)) == holevo(3, 2)

    @pytest.mark.parametrize(
        "call",
        [
            holevo,
            s_min,
            control_entropy,
            lambda m, d: output_spectrum(m, d, np.full(2, 0.5)),
        ],
        ids=["holevo", "s_min", "control_entropy", "output_spectrum"],
    )
    def test_non_integral_points_are_refused(self, call):
        # 2.5 orders used to give chi = 0.0667 bits, and a 2.0 dimension a report with dim 2.0
        with pytest.raises(DomainError, match="^number of orders must be an integer, got 2.5$"):
            call(2.5, 2)
        with pytest.raises(DomainError, match="^dimension must be an integer, got 2.0$"):
            call(2, 2.0)
        with pytest.raises(DomainError, match="^number of orders must be an integer, got 3.0$"):
            call(np.float64(3.0), 2)

    @pytest.mark.parametrize("d", [2, 3, 6, 64])
    def test_single_order_chi_exactly_zero(self, d):
        report = holevo(1, d)
        assert report.chi == 0.0
        assert report.s_control == 0.0
        assert report.s_min == math.log2(d)

    def test_entropy_functions_read_the_report(self):
        for d in range(2, 17):
            for m in range(1, 2001):
                r = holevo(m, d)
                assert s_min(m, d) == r.s_min
                assert control_entropy(m, d) == r.s_control

    # (M, d): S_min, S(control) and chi to the last bit.  chi at (6, 2) over
    # chi at (2, 2) is the paper's "almost 3 fold" gain from 2 to 3 channels.
    PINNED = {
        (2, 2): (1.9056390622295665, 0.954434002924965, 0.04879494069539869),
        (6, 2): (3.2661506484543548, 2.4056390622295662, 0.13948841377521148),
        (24, 3): (5.919489202276825, 4.458591205867172, 0.1240645043115034),
        (20000, 16): (18.252946991436353, 14.268389761441302, 0.01544277000494887),
        (1, 7): (2.807354922057604, 0.0, 0.0),
    }

    @pytest.mark.parametrize("point", sorted(PINNED))
    def test_pinned_bits(self, point):
        m, d = point
        expected = self.PINNED[point]
        assert (s_min(m, d), control_entropy(m, d), holevo(m, d).chi) == expected
        assert holevo(m, d)[2:] == expected

    def test_identity_holds_on_grid(self):
        for m in range(1, 101):
            for d in range(2, 17):
                r = holevo(m, d)
                assert r.chi == math.log2(d) + r.s_control - r.s_min
                assert r.chi >= 0.0
                assert r.s_min >= r.s_control >= 0.0

    def test_monotone_in_orders_and_dimension(self):
        for d in (2, 5, 16):
            chis = [holevo(m, d).chi for m in range(1, 200)]
            assert all(b > a for a, b in zip(chis, chis[1:]))
        for m in (2, 17, 100):
            chis = [holevo(m, d).chi for d in range(2, 17)]
            assert all(b < a for a, b in zip(chis, chis[1:]))

    def test_pure_states_minimize_output_entropy(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            m = int(rng.integers(1, 51))
            entropy = von_neumann_entropy(output_spectrum(m, d, random_mixed_spectrum(d, rng)))
            assert entropy >= s_min(m, d) - 1e-12


class TestHolevoBlock:
    # The point sets of the five TestSweep::test_document_digests grids
    # (tests/test_cli.py), whatever route cmd_grid takes for them: the three
    # 2..16 x 1..2000 documents, and the two wide ones, which reach M = 1,
    # M = 999 999 and d = 64.  Floats are compared by their bytes, so an
    # S(control) of -0.0 at M = 1, which the shared formula gives there,
    # would fail.
    @pytest.mark.parametrize(
        ("dims", "orders"),
        [
            (range(2, 17), list(range(1, 2001))),
            (range(2, 65), [*range(1, 301), 999999]),
        ],
        ids=["csv-text-json", "wide-csv-wide-json"],
    )
    def test_bits_match_holevo_on_the_digest_grids(self, dims, orders):
        for d in dims:
            smin, scontrol, chi = _holevo_block(orders, d)
            reports = [holevo(m, d) for m in orders]
            expected = np.array([(r.chi, r.s_min, r.s_control) for r in reports])
            assert np.column_stack([chi, smin, scontrol]).tobytes() == expected.tobytes(), d


class TestAsymptoticLimit:
    def test_qubit_limit(self):
        assert asymptotic_limit(2) == pytest.approx(LIMIT_2, abs=1e-14)
        assert asymptotic_limit(2) == pytest.approx(0.311, abs=1e-3)

    def test_limit_decreases_with_dimension(self):
        assert asymptotic_limit(3) < asymptotic_limit(2)
        assert asymptotic_limit(4) < asymptotic_limit(3)

    @pytest.mark.parametrize("d,expected", [(2, LIMIT_2), (3, LIMIT_3), (4, LIMIT_4)])
    def test_agrees_with_large_order_evaluation(self, d, expected):
        assert asymptotic_limit(d) == pytest.approx(expected, abs=1e-14)
        assert abs(asymptotic_limit(d) - holevo(10**6, d).chi) < 1e-4

    def test_every_finite_point_stays_below_the_limit(self):
        for d in (2, 3, 4):
            limit = asymptotic_limit(d)
            previous = -1.0
            for m in (1, 2, 5, 10, 10**2, 10**3, 10**4):
                chi = holevo(m, d).chi
                assert previous < chi < limit
                previous = chi

    def test_ten_thousand_orders_qubit_window(self):
        assert 0.305 <= holevo(10**4, 2).chi <= LIMIT_2

    def test_domain_error(self):
        with pytest.raises(DomainError):
            asymptotic_limit(1)

    def test_non_integral_dimension_is_refused(self):
        with pytest.raises(DomainError, match="^dimension must be an integer, got 2.5$"):
            asymptotic_limit(2.5)
        assert asymptotic_limit(np.int64(3)) == asymptotic_limit(3)

    @pytest.mark.parametrize("dim", [65, 10**7, 10**400], ids=["65", "1e7", "1e400"])
    def test_rejects_dimension_past_the_range(self, dim):
        # chi loses every digit to cancellation long before d = 10^7, where
        # holevo(100, d).chi came out negative
        with pytest.raises(DomainError, match=f"dimension {dim} outside \\[2, 64\\]"):
            asymptotic_limit(dim)
        with pytest.raises(DomainError, match=f"dimension {dim} outside"):
            holevo(100, dim)
        with pytest.raises(DomainError, match=f"dimension {dim} outside"):
            s_min(100, dim)

    def test_range_bounds_are_accepted(self):
        assert DIM_RANGE == (2, 64)
        for dim in DIM_RANGE:
            assert 0.0 < holevo(100, dim).chi < asymptotic_limit(dim)


class TestAnalyticOutputState:
    def test_matches_brute_force_for_cyclic_orders(self):
        basis = weyl_basis(2)
        rho = random_density_matrix(2, np.random.default_rng(5))
        produced = apply_switch(cyclic_orders(3), basis, ControlAmplitudes.uniform(3), rho)
        predicted = analytic_output_state(rho, 3)
        assert np.abs(produced.state - predicted).max() < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 24])
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_is_the_kronecker_expression_bit_for_bit(self, m, d):
        rho = random_density_matrix(d, np.random.default_rng(m * d))
        c = ControlAmplitudes.uniform(m).as_array()
        weights = np.diag(c * c)
        expected = np.kron(weights, np.eye(d) / d) + np.kron(np.outer(c, c) - weights, rho / (d * d))
        assert np.array_equal(analytic_output_state(rho, m), expected)

    def test_checks_the_point_like_every_closed_form(self):
        with pytest.raises(DomainError, match="dimension 65 outside"):
            analytic_output_state(np.eye(65) / 65, 2)
        with pytest.raises(DomainError, match="number of orders"):
            analytic_output_state(np.eye(2) / 2, 0)

    def test_rejects_a_non_square_state(self):
        with pytest.raises(InvalidStateError, match="square"):
            analytic_output_state(np.zeros((2, 3)), 2)


class TestDeterminantFactorization:
    def test_two_orders_pure_qubit(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        c = ControlAmplitudes.uniform(2)
        assert det_factorization_residual(2, 2, rho, c) < 1e-12
        # cofactor oracle on the explicit 4x4 state: det equals 3/1024
        state = analytic_output_state(rho, 2)
        det = det_cofactor(state)
        assert det.real == pytest.approx(3 / 1024, abs=1e-15)
        assert abs(det.imag) < 1e-15

    def test_three_orders_random_qubit_with_row_reduction_oracle(self):
        rho = random_density_matrix(2, np.random.default_rng(77))
        c = ControlAmplitudes.uniform(3)
        assert det_factorization_residual(3, 2, rho, c) < 1e-10
        state = analytic_output_state(rho, 3)
        full = det_row_reduction(state)
        eye = np.eye(2, dtype=complex)
        factored = det_row_reduction((eye / 2 + 2 * rho / 4) / 3) * det_row_reduction(
            (eye / 2 - rho / 4) / 3
        ) ** 2
        assert abs(full - factored) / abs(full) < 1e-12

    def test_single_order_trivial_case(self):
        rho = random_density_matrix(3, np.random.default_rng(1))
        residual = det_factorization_residual(1, 3, rho, ControlAmplitudes.uniform(1))
        assert residual < 1e-12
        # both sides equal det(I/d) = d^-d
        state = analytic_output_state(rho, 1)
        assert det_cofactor(state).real == pytest.approx(3.0**-3, abs=1e-15)

    def test_large_block_count_runs_in_log_space(self):
        # at 80 x 80 the raw determinant is ~1e-150; the log-space route
        # keeps the comparison meaningful
        rho = random_density_matrix(2, np.random.default_rng(9))
        assert det_factorization_residual(40, 2, rho, ControlAmplitudes.uniform(40)) < 1e-10

    def test_rejects_non_uniform_amplitudes(self):
        rho = np.eye(2) / 2
        with pytest.raises(DomainError):
            det_factorization_residual(2, 2, rho, ControlAmplitudes(values=(0.6, 0.8)))

    def test_rejects_a_state_of_another_dimension(self):
        with pytest.raises(DimensionMismatchError, match="expected \\(2, 2\\)"):
            det_factorization_residual(2, 2, np.eye(3) / 3, ControlAmplitudes.uniform(2))

    @pytest.mark.parametrize(
        "rho", [np.eye(2), np.diag([1.5, -0.5])], ids=["trace-two", "negative-eigenvalue"]
    )
    def test_rejects_a_hermitian_matrix_that_is_not_a_state(self, rho):
        with pytest.raises(InvalidSpectrumError):
            det_factorization_residual(2, 2, rho, ControlAmplitudes.uniform(2))

    def test_rejects_oversized_joint_dimension(self):
        rho = np.eye(2) / 2
        with pytest.raises(DimensionOutOfRangeError):
            det_factorization_residual(200, 2, rho, ControlAmplitudes.uniform(200))
