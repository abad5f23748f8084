"""Tests for the brute-force switch simulation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from switchcap import switch
from switchcap.capacity import analytic_output_state, det_factorization_residual
from switchcap.cli import _block_residual
from switchcap.channels import UnitaryBasis, check_completeness, depolarize, weyl_basis
from switchcap.errors import (
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    SizeGuardError,
    SwitchCapError,
)
from switchcap.linalg import gram, hermitian_spectrum, partial_trace, von_neumann_entropy
from switchcap.switch import (
    BYTE_BUDGET,
    MAX_ORACLE_SAMPLES,
    ControlAmplitudes,
    NormalSource,
    OrderSet,
    SwitchOutput,
    _relative_orders,
    _switch_map,
    all_orders,
    apply_switch,
    build_switch_kraus,
    check_size_guard,
    cyclic_orders,
    cyclically_related,
    haar_random_state,
    holevo_oracle,
    random_density_matrix,
)


def naive_cross_block(order_a, order_b, basis, rho):
    """Pure-python tuple summation, independent of the vectorized path."""
    d = basis.dim
    n = len(order_a)
    acc = np.zeros((d, d), dtype=complex)
    for t in itertools.product(range(d * d), repeat=n):
        left = np.eye(d, dtype=complex)
        for slot in order_a:
            left = left @ basis.ops[t[slot]]
        right = np.eye(d, dtype=complex)
        for slot in order_b:
            right = right @ basis.ops[t[slot]]
        acc += left @ rho @ right.conj().T
    return acc / d ** (2 * n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: OrderSet(orders=()),
        lambda: OrderSet(orders=((0,),)),
        lambda: OrderSet(orders=((0, 0),)),
        lambda: OrderSet(orders=((0, 1), (0, 1))),
        lambda: check_completeness([]),
        lambda: partial_trace(np.eye(4) / 4, 2, 2, "C"),
        lambda: ControlAmplitudes(values=(1j,)),
        lambda: ControlAmplitudes(values="ab"),
        lambda: UnitaryBasis(dim=2, ops=weyl_basis(2).ops[:2].tolist()),
        lambda: SwitchOutput(2, 1, [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        lambda: OrderSet(orders=5),
        lambda: ControlAmplitudes.uniform(2.5),
        lambda: cyclic_orders(2.0),
        lambda: all_orders(3.0),
        lambda: weyl_basis(2.0),
        lambda: NormalSource(1.5),
        lambda: holevo_oracle(cyclic_orders(2), weyl_basis(2), n_samples=3.5),
        lambda: check_size_guard(2, 2, 2.9),
        lambda: haar_random_state(2.0, NormalSource(0)),
        lambda: random_density_matrix(2.0, NormalSource(0)),
        lambda: haar_random_state(-1, NormalSource(0)),
        lambda: random_density_matrix(0, NormalSource(0)),
        lambda: partial_trace(np.eye(4) / 4, 2.0, 2, "A"),
        lambda: partial_trace(np.eye(4) / 4, -2, -2, "A"),
        lambda: SwitchOutput(2, 1, np.eye(2) / 2).block(1.5, 0),
        lambda: cyclically_related(1, 2),
        lambda: check_size_guard(2, 0, 2),
        lambda: check_size_guard(2, -3, 2),
        lambda: NormalSource(0).standard_normal(-1),
        lambda: NormalSource(0).standard_normal((2, -1)),
        lambda: NormalSource(0).standard_normal((-2, -3)),
        lambda: NormalSource(0).standard_normal(2.5),
        lambda: NormalSource(0).standard_normal((2, 2.0)),
        lambda: NormalSource(0).standard_normal(None),
        lambda: NormalSource(0).standard_normal("3"),
        lambda: SwitchOutput(-1, -2, np.eye(2) / 2),
        lambda: UnitaryBasis(dim=0, ops=np.zeros((0, 0, 0))),
        lambda: apply_switch(cyclic_orders(2), weyl_basis(2), (0.6, 0.8), np.eye(2) / 2),
        lambda: apply_switch(cyclic_orders(2), weyl_basis(2), None, np.eye(2) / 2),
        lambda: det_factorization_residual(2, 2, np.eye(2) / 2, (2**-0.5, 2**-0.5)),
        lambda: det_factorization_residual(2, 2, np.eye(2) / 2, None),
        lambda: switch.order_count(4, "bogus"),
    ],
    ids=[
        "no-orders", "one-channel", "not-a-permutation", "duplicate", "no-kraus", "keep",
        "complex-amplitude", "string-amplitudes", "nested-list-basis", "nested-list-output",
        "int-orders", "float-uniform", "float-cyclic", "float-all", "float-weyl",
        "float-seed", "float-samples", "float-guard-dim", "float-haar-dim", "float-density-dim",
        "negative-haar-dim", "zero-density-dim", "float-partial-trace-dim",
        "negative-partial-trace-dims", "float-block-index", "int-orders-related",
        "zero-guard-m", "negative-guard-m", "negative-draw-count", "negative-draw-dim",
        "negative-draw-dims", "float-draw-count", "float-draw-dim", "none-draw-size",
        "string-draw-size", "negative-output-shape", "zero-basis-dim",
        "tuple-switch-amplitudes", "none-switch-amplitudes", "tuple-det-amplitudes",
        "none-det-amplitudes", "unknown-order-mode",
    ],
)
def test_argument_errors_are_switchcap_errors(call):
    # each is a DomainError, InvalidStateError or DimensionMismatchError, so
    # still a ValueError, and never a bare TypeError or AttributeError
    with pytest.raises(SwitchCapError) as caught:
        call()
    assert isinstance(caught.value, ValueError)


RHO2 = np.eye(2) / 2


@pytest.mark.parametrize(
    ("call", "name"),
    [
        (lambda: apply_switch(None, weyl_basis(2), ControlAmplitudes.uniform(2), RHO2), "orders"),
        (lambda: apply_switch(cyclic_orders(2), None, ControlAmplitudes.uniform(2), RHO2), "basis"),
        (lambda: holevo_oracle(None, weyl_basis(2)), "orders"),
        (lambda: holevo_oracle(cyclic_orders(2), None), "basis"),
        (lambda: build_switch_kraus(None, weyl_basis(2)), "orders"),
        (lambda: build_switch_kraus(cyclic_orders(2), None), "basis"),
        (lambda: depolarize(None, RHO2), "basis"),
        (lambda: random_density_matrix(2, None), "rng"),
        (lambda: haar_random_state(2, None), "rng"),
        (lambda: apply_switch(cyclic_orders(2), weyl_basis(2), None, RHO2), "amplitudes"),
        (lambda: apply_switch(cyclic_orders(2), weyl_basis(2), (0.6, 0.8), RHO2), "amplitudes"),
        (lambda: det_factorization_residual(2, 2, RHO2, None), "amplitudes"),
        (lambda: det_factorization_residual(2, 2, RHO2, (2**-0.5, 2**-0.5)), "amplitudes"),
    ],
    ids=[
        "apply-orders", "apply-basis", "oracle-orders", "oracle-basis", "kraus-orders",
        "kraus-basis", "depolarize-basis", "density-rng", "haar-rng", "apply-none-amplitudes",
        "apply-tuple-amplitudes", "det-none-amplitudes", "det-tuple-amplitudes",
    ],
)
def test_non_record_arguments_are_domain_errors(call, name):
    # None in place of a record, or of a sampler, is named before any of
    # its attributes is read, so no bare AttributeError escapes
    with pytest.raises(DomainError, match=f"^{name} must "):
        call()


@pytest.mark.parametrize(
    ("call", "dim"),
    [
        (
            lambda: apply_switch(
                cyclic_orders(2), weyl_basis(2), ControlAmplitudes.uniform(2), np.eye(3) / 3
            ),
            2,
        ),
        (lambda: depolarize(weyl_basis(3), RHO2), 3),
        (lambda: partial_trace(np.eye(4) / 4, 2, 3, "A"), 6),
        (
            lambda: det_factorization_residual(2, 2, np.eye(3) / 3, ControlAmplitudes.uniform(2)),
            2,
        ),
    ],
    ids=["apply-switch", "depolarize", "partial-trace", "det-factorization"],
)
def test_wrong_shape_states_are_dimension_mismatches(call, dim):
    # every function that takes a state of a known dimension checks its
    # shape through one helper, with one error class and one message
    with pytest.raises(DimensionMismatchError, match=f"expected \\({dim}, {dim}\\)$"):
        call()


class TestOrderSets:
    def test_cyclic_two_channels(self):
        assert cyclic_orders(2).orders == ((0, 1), (1, 0))

    def test_cyclic_three_channels(self):
        assert cyclic_orders(3).orders == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_cyclic_four_channels_distinct(self):
        orders = cyclic_orders(4)
        assert orders.m_orders == 4
        assert orders.orders[0] == (0, 1, 2, 3)
        assert len(set(orders.orders)) == 4

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 24)])
    def test_all_orders_counts(self, n, count):
        assert all_orders(n).m_orders == count

    def test_all_orders_lexicographic(self):
        orders = all_orders(3).orders
        assert list(orders) == sorted(orders)

    def test_all_orders_guard(self):
        with pytest.raises(SizeGuardError):
            all_orders(6)

    def test_too_few_channels(self):
        with pytest.raises(DomainError):
            cyclic_orders(1)
        with pytest.raises(DomainError):
            all_orders(1)

    def test_rejects_duplicates_and_non_permutations(self):
        with pytest.raises(ValueError):
            OrderSet(orders=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            OrderSet(orders=((0, 0),))

    def test_cyclically_related(self):
        assert cyclically_related((0, 1, 2), (1, 2, 0))
        assert cyclically_related((0, 2, 1), (1, 0, 2))
        assert not cyclically_related((0, 1, 2), (1, 0, 2))
        assert not cyclically_related((0, 1, 2), (0, 2, 1))
        # orders over different channel counts are never related
        assert not cyclically_related((0, 1, 2), (0, 1))


class TestControlAmplitudes:
    def test_uniform(self):
        c = ControlAmplitudes.uniform(4)
        assert len(c) == 4
        assert abs(sum(v * v for v in c.values) - 1.0) < 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            ControlAmplitudes(values=(0.5, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(InvalidStateError):
            ControlAmplitudes(values=(-0.6, 0.8))

    def test_rejects_empty(self):
        with pytest.raises(InvalidStateError, match="empty"):
            ControlAmplitudes(values=())
        with pytest.raises(DomainError):
            ControlAmplitudes.uniform(0)

    @pytest.mark.parametrize(
        "values",
        [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0)],
        ids=["nan-nan", "nan-one", "one-nan", "inf-zero"],
    )
    def test_rejects_non_finite(self, values):
        # NaN compares false against both the sign and the norm check
        with pytest.raises(InvalidStateError, match="finite"):
            ControlAmplitudes(values=values)


class TestRecordInputsAreCopied:
    def test_amplitude_list_is_stored_as_a_tuple(self):
        values = [0.6, 0.8]
        amplitudes = ControlAmplitudes(values=values)
        values[0] = 5.0
        assert amplitudes.values == (0.6, 0.8)

    def test_order_list_is_stored_as_tuples(self):
        orders = [(0, 1), (1, 0)]
        order_set = OrderSet(orders=orders)
        orders.append((0, 0))
        assert order_set.m_orders == 2
        assert order_set.orders == ((0, 1), (1, 0))

    def test_list_of_lists_is_accepted(self):
        inner = [0, 1]
        order_set = OrderSet(orders=[inner, [1, 0]])
        inner[0] = 1
        assert order_set == cyclic_orders(2)
        assert hash(order_set) == hash(cyclic_orders(2))

    def test_integer_like_entries_become_ints(self):
        order_set = OrderSet(orders=np.array([[0, 1], [1, 0]]))
        assert order_set == cyclic_orders(2)
        assert all(type(k) is int for order in order_set.orders for k in order)

    @pytest.mark.parametrize(
        "orders",
        [((0.0, 1.0), (1.0, 0.0)), ((0, 1), (1.0, 0)), ((0, 1), "10"), (0, 1)],
        ids=["floats", "one-float", "string", "flat"],
    )
    def test_non_integer_entries_are_refused(self, orders):
        with pytest.raises(DomainError, match="not a sequence of integers"):
            OrderSet(orders=orders)


class TestRecordSemantics:
    def test_value_equality_and_hash(self):
        assert OrderSet(orders=((0, 1), (1, 0))) == cyclic_orders(2)
        assert OrderSet(orders=((1, 0), (0, 1))) != cyclic_orders(2)
        assert hash(OrderSet(orders=((0, 1), (1, 0)))) == hash(cyclic_orders(2))
        assert ControlAmplitudes(values=(0.6, 0.8)) == ControlAmplitudes(values=[0.6, 0.8])
        assert ControlAmplitudes(values=(0.6, 0.8)) != ControlAmplitudes(values=(0.8, 0.6))
        assert len({ControlAmplitudes.uniform(2), ControlAmplitudes.uniform(2)}) == 1
        # records of different classes are never equal, even with equal fields
        assert OrderSet(orders=((0, 1),)) != ControlAmplitudes(values=(1.0,))
        assert cyclic_orders(2) != ((0, 1), (1, 0))

    def test_repr(self):
        assert repr(cyclic_orders(2)) == "OrderSet(orders=((0, 1), (1, 0)))"
        assert repr(ControlAmplitudes(values=[0.6, 0.8])) == "ControlAmplitudes(values=(0.6, 0.8))"

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda: cyclic_orders(2), "orders"),
            (lambda: ControlAmplitudes(values=(1.0,)), "values"),
            (
                lambda: apply_switch(
                    cyclic_orders(2), weyl_basis(2), ControlAmplitudes.uniform(2), RHO2
                ),
                "dim",
            ),
        ],
        ids=["order-set", "amplitudes", "output"],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, make, field):
        # the record is built inside the test, so a fault in the switch map
        # fails this case alone, not the collection of the module
        record = make()
        before = getattr(record, field)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, before)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) is before

    def test_output_equality_is_identity(self):
        # an array has no single truth value, so == must not compare states
        args = (cyclic_orders(2), weyl_basis(2), ControlAmplitudes.uniform(2), np.eye(2) / 2)
        out, again = apply_switch(*args), apply_switch(*args)
        assert out == out
        assert out != again
        assert hash(out) == hash(out)
        assert {out: 1}[out] == 1
        assert repr(out).startswith("SwitchOutput(m_orders=2, dim=2, state=array(")

    def test_pickle_round_trip_validates_again(self):
        import pickle

        for record in (all_orders(3), ControlAmplitudes(values=(0.6, 0.8))):
            restored = pickle.loads(pickle.dumps(record))
            assert restored == record and hash(restored) == hash(record)
        out = apply_switch(cyclic_orders(2), weyl_basis(2), ControlAmplitudes.uniform(2), np.eye(2) / 2)
        restored = pickle.loads(pickle.dumps(out))
        assert np.array_equal(restored.state, out.state)
        assert not restored.state.flags.writeable


class TestBuildSwitchKraus:
    def test_two_channel_structure(self):
        basis = weyl_basis(2)
        kraus = build_switch_kraus(cyclic_orders(2), basis)
        assert kraus.shape == (16, 2, 2, 2)
        # block form: |0><0| (x) U_i U_j / 4 + |1><1| (x) U_j U_i / 4
        for idx, (i, j) in enumerate(itertools.product(range(4), repeat=2)):
            assert np.abs(kraus[idx, 0] - basis.ops[i] @ basis.ops[j] / 4).max() < 1e-14
            assert np.abs(kraus[idx, 1] - basis.ops[j] @ basis.ops[i] / 4).max() < 1e-14

    @pytest.mark.parametrize(
        "orders",
        [
            OrderSet(orders=((0, 1, 2), (1, 0, 2), (2, 1, 0))),
            # (1, 3, 0, 2) is not its own inverse, so composing an order's
            # inverse in its place cannot pass
            OrderSet(orders=((0, 1, 2, 3), (1, 3, 0, 2))),
        ],
        ids=["n3-involutions", "n4-pair"],
    )
    def test_tuple_order_for_any_orders(self, orders):
        # tuple t labels operator t in itertools.product order
        basis = weyl_basis(2)
        n = orders.n_channels
        kraus = build_switch_kraus(orders, basis)
        tuples = list(itertools.product(range(4), repeat=n))
        assert len(kraus) == len(tuples)
        for k, t in zip(kraus, tuples):
            for l, order in enumerate(orders.orders):
                prod = np.eye(2, dtype=complex)
                for slot in order:
                    prod = prod @ basis.ops[t[slot]]
                assert np.abs(k[l] - prod / 2**n).max() < 1e-14

    @pytest.mark.parametrize(
        ("orders", "d"),
        [
            (cyclic_orders(2), 2),
            (all_orders(3), 3),
            (OrderSet(orders=((0, 1, 2, 3), (1, 3, 0, 2))), 2),
        ],
        ids=["cyclic2-d2", "all3-d3", "n4-pair-d2"],
    )
    def test_returns_one_writable_stack(self, orders, d):
        kraus = build_switch_kraus(orders, weyl_basis(d))
        n, m = orders.n_channels, orders.m_orders
        assert isinstance(kraus, np.ndarray)
        assert kraus.shape == (d ** (2 * n), m, d, d)
        assert kraus.dtype == complex
        assert kraus.flags.writeable

    @pytest.mark.parametrize(
        ("orders", "d"),
        [
            (cyclic_orders(4), 3),
            (all_orders(4), 2),
            (cyclic_orders(5), 3),
            (OrderSet(orders=((2, 0, 1),)), 3),
            (all_orders(3), 3),
        ],
        ids=["cyclic4-d3", "all4-d2", "cyclic5-d3", "one-order-d3", "all3-d3"],
    )
    def test_blocks_match_the_broadcast_chain(self, orders, d):
        # the products of one d x d matmul per tuple, broadcast over the tuples
        basis = weyl_basis(d)
        n = orders.n_channels
        chain = basis.ops
        for _ in range(n - 1):
            chain = chain[..., None, :, :] @ basis.ops
        kraus = build_switch_kraus(orders, basis)
        for l, order in enumerate(orders.orders):
            expected = chain.transpose(*np.argsort(order), n, n + 1).reshape(-1, d, d)
            assert np.abs(kraus[:, l] - expected / d**n).max() < 1e-15

    @pytest.mark.parametrize(
        ("orders", "d"),
        [
            (cyclic_orders(4), 3),
            (all_orders(4), 2),
            (OrderSet(orders=((2, 0, 1),)), 3),
            (cyclic_orders(2), 12),
            # the first order is not the identity
            (OrderSet(orders=((1, 2, 0), (0, 2, 1), (2, 1, 0))), 3),
        ],
        ids=["cyclic4-d3", "all4-d2", "one-order-d3", "cyclic2-d12", "explicit3-d3"],
    )
    def test_scaling_the_chain_first_changes_no_bit(self, orders, d):
        # the same chain, copied into a C-order (d^(2N), M, d, d) array and
        # then scaled, equals the family stored order-major
        basis = weyl_basis(d)
        n = orders.n_channels
        chain = basis.ops
        for _ in range(n - 1):
            chain = np.matmul(chain.reshape(-1, d), basis.ops)
        chain = chain.reshape((d * d,) * n + (d, d))
        expected = np.stack(
            [chain.transpose(*(n - 1 - np.argsort(o)), n, n + 1) for o in orders.orders],
            axis=n,
        ).reshape(-1, orders.m_orders, d, d)
        expected /= float(d**n)
        del chain
        kraus = build_switch_kraus(orders, basis)
        assert np.array_equal(kraus, expected)
        # each order's slab is contiguous, so the completeness check reads it in place
        for slab in kraus.transpose(1, 0, 2, 3):
            assert slab.flags.c_contiguous

    def test_three_channel_completeness(self):
        kraus = build_switch_kraus(cyclic_orders(3), weyl_basis(2))
        assert kraus.shape == (64, 3, 2, 2)
        assert check_completeness(kraus) < 1e-12

    @pytest.mark.parametrize(
        ("orders", "d", "scale"),
        [
            *[(cyclic_orders(n), d, 1.0) for n in range(2, 6) for d in (2, 3)],
            (all_orders(3), 2, 1.0),
            (all_orders(3), 3, 1.0),
            (all_orders(4), 2, 1.0),
            (OrderSet(orders=((1, 2, 0), (0, 2, 1), (2, 1, 0))), 3, 1.0),
            # one operator scaled by 1.001: residual 1.5015e-3 on every order
            (cyclic_orders(3), 2, 1.001),
            (all_orders(3), 2, 1.001),
        ],
        ids=[
            *[f"cyclic{n}-d{d}" for n in range(2, 6) for d in (2, 3)],
            "all3-d2",
            "all3-d3",
            "all4-d2",
            "explicit3-d3",
            "cyclic3-scaled",
            "all3-scaled",
        ],
    )
    def test_first_order_family_has_every_orders_sum(self, orders, d, scale):
        # t -> t o sigma_l is a bijection of the tuples, so every order's
        # block of sum_t K_t^dagger K_t is the first order's sum relabeled,
        # for any operators: verify's one-order family loses nothing
        ops = weyl_basis(d).ops.copy()
        ops[1] *= scale
        basis = UnitaryBasis(dim=d, ops=ops)
        kraus = build_switch_kraus(orders, basis)
        first = build_switch_kraus(OrderSet(orders=orders.orders[:1]), basis)
        expected = gram(first[:, 0].reshape(-1, d))
        for l in range(orders.m_orders):
            assert np.abs(gram(kraus[:, l].reshape(-1, d)) - expected).max() <= 1e-15
        residual = check_completeness(first)
        assert abs(check_completeness(kraus) - residual) <= 1e-15
        # sum_u U_u^dagger U_u / d^2 is (1 + (scale^2 - 1)/d^2) I, once per channel
        assert abs(residual - ((1 + (scale**2 - 1) / d**2) ** orders.n_channels - 1)) < 1e-12

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            check_size_guard(5, 120, 3)
        with pytest.raises(SizeGuardError):
            build_switch_kraus(all_orders(5), weyl_basis(3))

    @pytest.mark.parametrize(
        ("n_channels", "mode", "dim", "admitted"),
        [
            (4, "all", 2, True),  # 0.4 MiB
            (4, "cyclic", 3, True),  # 4.5 MiB
            (4, "all", 3, True),  # 22.5 MiB
            (5, "all", 2, True),  # 8.0 MiB
            (3, "all", 5, True),  # 42 MiB
            (2, "cyclic", 11, True),  # 82 MiB
            (2, "cyclic", 12, True),  # 137 MiB
            (3, "cyclic", 6, True),  # 103 MiB
            (4, "cyclic", 4, True),  # 80 MiB
            (2, "cyclic", 13, True),  # 222 MiB
            (2, "cyclic", 16, False),  # 770 MiB
            (3, "all", 6, True),  # 180 MiB
            (5, "all", 3, False),  # 982 MiB
            (5, "cyclic", 4, False),  # 1.5 GiB
        ],
    )
    def test_size_guard_counts_bytes(self, n_channels, mode, dim, admitted):
        # The largest of the order products with their product chain, the
        # contraction's three arrays and the oracle's stages at 64 samples,
        # the last beside the switch map's K = 16 P d^4 + 8 (M d)^2 bytes:
        # max(16 d^(2N) d^2 (M + 1), 48 P d^(N+3), O + K) bytes,
        # P = min(M (M - 1) + 1, N!).  Every case here is bound by the products.
        orders = {"all": all_orders, "cyclic": cyclic_orders}[mode](n_channels)
        if admitted:
            check_size_guard(orders.n_channels, orders.m_orders, dim)
        else:
            with pytest.raises(SizeGuardError, match="bytes"):
                check_size_guard(orders.n_channels, orders.m_orders, dim)

    def test_size_guard_decisions_on_a_grid(self):
        # Largest admitted M in 1..130 for each (N, d), N in 2..15 and d in
        # 2..16, from max(16 d^(2N) d^2 (M + 1), 48 P d^(N+3), O + K)
        # bytes with K = 16 P d^4 + 8 (M d)^2, P = min(M (M - 1) + 1, N!) and
        # O the oracle's stages at 64 samples, against 2^28.  The pairs in
        # all_m admit every M; the other pairs admit none.  The contraction's
        # term binds at (8, 2) and the products' everywhere else.  d = 1 is
        # outside the guard's domain at every M.
        largest = {
            (2, 8): 63, (2, 9): 30, (2, 10): 15,
            (2, 11): 8, (2, 12): 4, (2, 13): 2, (2, 14): 1,
            (3, 5): 41, (3, 6): 8, (3, 7): 1,
            (4, 4): 15, (5, 3): 30, (6, 3): 2,
            (8, 2): 52, (9, 2): 15, (10, 2): 3,
        }
        all_m = {
            (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4),
            (4, 2), (4, 3), (5, 2), (6, 2), (7, 2),
        }
        for n, d in itertools.product(range(2, 16), range(1, 17)):
            bound = 130 if (n, d) in all_m else largest.get((n, d), 0)
            for m in range(1, 131):
                if d == 1:
                    with pytest.raises(DomainError):
                        check_size_guard(n, m, d)
                elif m <= bound:
                    check_size_guard(n, m, d)
                else:
                    with pytest.raises(SizeGuardError):
                        check_size_guard(n, m, d)

    def test_size_guard_counts_exact_integers(self):
        # d = 1 is outside the domain, so a huge N there is refused before any count
        with pytest.raises(DomainError):
            check_size_guard(10**400, 1, 1)
        for n in (10**400, 15):
            with pytest.raises(SizeGuardError, match=f"over 2\\^{2 * n} bytes"):
                check_size_guard(n, 1, 2)
        # 16 3^28 9 (10^4 + 1) bytes is past 2^63: a numpy d is counted as a Python int
        with pytest.raises(SizeGuardError, match="3.29e\\+19 bytes"):
            check_size_guard(14, 10**4, np.int64(3))

    @pytest.mark.parametrize(
        ("n_channels", "m", "dim", "message"),
        [
            (1, 2, 2, "channel count must be at least 2, got 1"),
            (0, 2, 2, "channel count must be at least 2, got 0"),
            (-3, 2, 2, "channel count must be at least 2, got -3"),
            (2, 2, 1, "dimension must be at least 2, got 1"),
            (2, 2, 0, "dimension must be at least 2, got 0"),
            (14, 2, -2, "dimension must be at least 2, got -2"),
            (2, 0, 2, "number of orders must be at least 1, got 0"),
            (2, -3, 2, "number of orders must be at least 1, got -3"),
        ],
        ids=["1-2", "0-2", "-3-2", "2-1", "2-0", "14--2", "m-0", "m--3"],
    )
    def test_size_guard_domain(self, n_channels, m, dim, message):
        # fewer than two channels, no order or a dimension below 2 is refused
        # before any count, naming the argument out of its domain
        with pytest.raises(DomainError) as caught:
            check_size_guard(n_channels, m, dim)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("m", "dim", "bits"),
        [(10**200, 2, 1337), (2, 10**300, 5986)],
        ids=["huge-m", "huge-d"],
    )
    def test_size_guard_message_past_the_float_range(self, m, dim, bits):
        # the byte count is too large for a float, so the message gives its bit length
        with pytest.raises(SizeGuardError, match=f"needs ~2\\^{bits} bytes"):
            check_size_guard(2, m, dim)

    def test_size_guard_admits_every_order_of_six_channels(self):
        # --mode explicit is bounded by bytes alone: all 720 orders of N = 6
        # at d = 2, bound by the family's 16 * 2^12 * 4 * 721 bytes
        assert check_size_guard(6, 720, 2) == 189_005_824

    def test_size_guard_message_in_the_float_range(self):
        # the verify --channels 2 --dim 16 message, byte for byte
        with pytest.raises(SizeGuardError) as caught:
            check_size_guard(2, 2, 16)
        assert str(caught.value) == (
            "N=2, d=16, M=2 needs ~8.05e+08 bytes of order products, "
            "switch map and oracle states (budget 2.68e+08)"
        )

    @pytest.mark.parametrize(
        ("orders", "d"),
        [
            (cyclic_orders(4), 3),
            (all_orders(4), 2),
            (all_orders(3), 5),
            (cyclic_orders(2), 12),
            (all_orders(5), 2),
            # contraction-bound: 670 relative permutations, of the bound's 720
            (OrderSet(orders=tuple(itertools.permutations(range(6)))[::13]), 2),
        ],
        ids=["cyclic4-d3", "all4-d2", "all3-d5", "cyclic2-d12", "all5-d2", "n6-every13th-d2"],
    )
    def test_size_guard_predicts_the_peak(self, orders, d):
        # the guard's count is the largest tracemalloc peak of the switch map,
        # of the Kraus completeness check and of verify's block check beside
        # a held map, within 10 %; the family's term is larger than the
        # block check's, so the guard need not count the block check
        basis = weyl_basis(d)
        amplitudes = ControlAmplitudes.uniform(orders.m_orders)
        rho = np.eye(d, dtype=complex) / d
        held = _switch_map(orders, basis)
        runs = [
            lambda: apply_switch(orders, basis, amplitudes, rho),
            lambda: check_completeness(build_switch_kraus(orders, basis)),
            lambda: _block_residual(orders, basis, amplitudes, rho, switch_map=held),
        ]
        peaks = []
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the block check takes a map built before tracing started
        peaks[2] += held.blocks.nbytes + held.index.nbytes
        guard = check_size_guard(orders.n_channels, orders.m_orders, d)
        assert 0.9 * guard <= max(peaks) <= 1.1 * guard


class TestApplySwitch:
    @pytest.mark.parametrize(
        ("orders", "d"), [(all_orders(4), 2), (cyclic_orders(4), 3)], ids=["all4-d2", "cyclic4-d3"]
    )
    def test_uniform_scalar_weight_is_the_product_array(self, orders, d):
        # every entry of the outer product is c[0] * c[0], so scaling by that
        # scalar gives the array's output state bit for bit
        held = _switch_map(orders, weyl_basis(d))
        c = ControlAmplitudes.uniform(orders.m_orders).as_array()
        rho = random_density_matrix(d, np.random.default_rng(d))
        expected = switch._output_state(held, np.outer(c, c)[:, None, :, None], rho)
        assert np.array_equal(switch._output_state(held, c[0] * c[0], rho), expected)

    def test_block_residual_takes_each_block_maximum(self):
        orders, basis = all_orders(3), weyl_basis(3)
        held = _switch_map(orders, basis)
        amplitudes = ControlAmplitudes.uniform(orders.m_orders)
        rho = random_density_matrix(3, np.random.default_rng(11))
        produced = apply_switch(orders, basis, amplitudes, rho, switch_map=held)
        gap = np.abs(produced.state - analytic_output_state(rho, orders.m_orders))
        expected = gap.reshape(6, 3, 6, 3).max(axis=(1, 3))
        got = _block_residual(orders, basis, amplitudes, rho, switch_map=held)
        assert np.array_equal(got, expected)

    def test_two_channel_qubit_blocks(self):
        basis = weyl_basis(2)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_switch(cyclic_orders(2), basis, ControlAmplitudes.uniform(2), rho)
        assert np.abs(out.block(0, 0) - np.eye(2) / 4).max() < 1e-12
        assert np.abs(out.block(1, 1) - np.eye(2) / 4).max() < 1e-12
        assert np.abs(out.block(0, 1) - rho / 8).max() < 1e-12
        assert np.abs(out.block(1, 0) - rho / 8).max() < 1e-12

    def test_three_channel_qutrit_off_diagonal_blocks(self):
        basis = weyl_basis(3)
        rho = random_density_matrix(3, np.random.default_rng(2))
        out = apply_switch(cyclic_orders(3), basis, ControlAmplitudes.uniform(3), rho)
        for i in range(3):
            for j in range(3):
                expected = np.eye(3) / 9 if i == j else rho / 27
                assert np.abs(out.block(i, j) - expected).max() < 1e-12

    def test_matches_naive_summation(self):
        basis = weyl_basis(2)
        rho = random_density_matrix(2, np.random.default_rng(8))
        orders = cyclic_orders(3)
        out = apply_switch(orders, basis, ControlAmplitudes.uniform(3), rho)
        blk = naive_cross_block(orders.orders[0], orders.orders[2], basis, rho)
        assert np.abs(out.block(0, 2) - blk / 3).max() < 1e-13

    def test_single_order_collapses_to_depolarization(self):
        # one definite order of complete depolarizations sends everything to I/d
        basis = weyl_basis(2)
        orders = OrderSet(orders=((0, 1),))
        rho = random_density_matrix(2, np.random.default_rng(4))
        out = apply_switch(orders, basis, ControlAmplitudes(values=(1.0,)), rho)
        assert np.abs(out.state - np.eye(2) / 2).max() < 1e-12

    @pytest.mark.parametrize(
        "orders",
        [
            cyclic_orders(2),
            cyclic_orders(3),
            OrderSet(orders=((0, 1, 2), (1, 0, 2))),
            all_orders(3),
        ],
    )
    def test_output_is_valid_density_matrix(self, orders):
        # validated inside SwitchOutput: Hermitian, unit trace, PSD
        basis = weyl_basis(2)
        rho = random_density_matrix(2, np.random.default_rng(6))
        out = apply_switch(orders, basis, ControlAmplitudes.uniform(orders.m_orders), rho)
        values = hermitian_spectrum(out.state)
        assert values[-1] > -1e-10
        assert abs(values.sum() - 1.0) < 1e-12

    def test_diagonal_blocks_for_any_orders_and_amplitudes(self):
        # each diagonal sector is a chain of complete depolarizations
        basis = weyl_basis(2)
        orders = OrderSet(orders=((0, 1, 2), (1, 0, 2), (2, 1, 0)))
        c = ControlAmplitudes(values=(0.3, 0.4, np.sqrt(1 - 0.09 - 0.16)))
        rho = random_density_matrix(2, np.random.default_rng(10))
        out = apply_switch(orders, basis, c, rho)
        for i, amp in enumerate(c.values):
            assert np.abs(out.block(i, i) - amp * amp * np.eye(2) / 2).max() < 1e-12

    def test_cyclic_pair_blocks_for_non_uniform_amplitudes(self):
        # block (i, i) is c_i^2 I/d and block (i, j) is c_i c_j rho/d^2
        c = ControlAmplitudes(values=(0.6, 0.8))
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_switch(cyclic_orders(2), weyl_basis(2), c, rho)
        assert np.abs(out.block(0, 0) - 0.36 * np.eye(2) / 2).max() < 1e-15
        assert np.abs(out.block(0, 1) - 0.48 * rho / 4).max() < 1e-15
        assert np.abs(out.block(1, 1) - 0.64 * np.eye(2) / 2).max() < 1e-15

    def test_relabeling_invariance(self):
        # permuting orders together with amplitudes permutes the blocks
        basis = weyl_basis(2)
        orders = cyclic_orders(3)
        c = (0.6, 0.48, np.sqrt(1 - 0.36 - 0.2304))
        out = apply_switch(orders, basis, ControlAmplitudes(values=c), np.diag([1.0, 0.0]))
        perm = [2, 0, 1]
        shuffled_orders = OrderSet(orders=tuple(orders.orders[p] for p in perm))
        shuffled_c = ControlAmplitudes(values=tuple(c[p] for p in perm))
        shuffled = apply_switch(shuffled_orders, basis, shuffled_c, np.diag([1.0, 0.0]))
        for i in range(3):
            for j in range(3):
                assert np.abs(shuffled.block(i, j) - out.block(perm[i], perm[j])).max() < 1e-14

    def test_block_indices_must_lie_in_range(self):
        out = apply_switch(cyclic_orders(2), weyl_basis(2), ControlAmplitudes.uniform(2), np.eye(2) / 2)
        assert np.array_equal(out.block(1, 1), out.state[2:, 2:])
        for i, j in [(2, 0), (0, 2), (-1, 0), (0, -1)]:
            with pytest.raises(DomainError, match="outside"):
                out.block(i, j)

    def test_dimension_checks(self):
        basis = weyl_basis(2)
        with pytest.raises(DimensionMismatchError):
            apply_switch(cyclic_orders(2), basis, ControlAmplitudes.uniform(2), np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            apply_switch(cyclic_orders(2), basis, ControlAmplitudes.uniform(3), np.eye(2) / 2)
        with pytest.raises(DimensionMismatchError, match="expected \\(4, 4\\)"):
            SwitchOutput(m_orders=2, dim=2, state=np.eye(3) / 3)


def kraus_sum_output(orders, basis, amplitudes, rho):
    """sum_t K_t (c c^T (x) rho) K_t^dagger over the literal switch Kraus operators."""
    c = amplitudes.as_array()
    joint = np.kron(np.outer(c, c), rho)
    blocks = build_switch_kraus(orders, basis)
    # each operator expanded from its control blocks to block-diagonal form
    m, d = orders.m_orders, basis.dim
    kraus = np.zeros((len(blocks), m * d, m * d), dtype=complex)
    for l in range(m):
        kraus[:, l * d : (l + 1) * d, l * d : (l + 1) * d] = blocks[:, l]
    return (kraus @ joint @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)


class TestSwitchMapAgainstKrausSum:
    @pytest.mark.parametrize(
        "orders,d,amplitudes",
        [
            (cyclic_orders(3), 2, (0.6, 0.48, np.sqrt(1 - 0.36 - 0.2304))),
            (OrderSet(orders=((0, 1, 2), (1, 0, 2))), 2, (0.8, 0.6)),
            (OrderSet(orders=((0, 1, 2), (2, 1, 0), (1, 0, 2))), 3, (0.3, 0.4, np.sqrt(0.75))),
            (OrderSet(orders=((0, 1, 2, 3), (1, 3, 0, 2))), 2, (0.6, 0.8)),
            (all_orders(3), 2, None),
            (all_orders(3), 3, None),
            (all_orders(4), 2, None),
        ],
        ids=["cyclic3-skewed", "swap-pair", "qutrit-mixed3", "n4-pair", "all3-d2", "all3-d3", "all4-d2"],
    )
    def test_full_state_matches_literal_kraus_sum(self, orders, d, amplitudes):
        basis = weyl_basis(d)
        if amplitudes is None:
            amplitudes = ControlAmplitudes.uniform(orders.m_orders)
        else:
            amplitudes = ControlAmplitudes(values=amplitudes)
        rho = random_density_matrix(d, np.random.default_rng(orders.m_orders + d))
        out = apply_switch(orders, basis, amplitudes, rho)
        expected = kraus_sum_output(orders, basis, amplitudes, rho)
        assert np.abs(out.state - expected).max() < 1e-14


def dense_map(orders, basis):
    """The switch map as one ((M*d)^2, d^2) matrix, assembled from its blocks and index.

    Raveled image position (pi, a, c) is row (a, c) of block pi, so the index
    picks, for each output row (i, a, j, c), the block row that gives it.
    """
    built = _switch_map(orders, basis)
    return built.blocks.reshape(-1, basis.dim**2)[built.index.ravel()]


def tuple_gram_map(orders, basis):
    """The switch map as the Gram of the literal Kraus family, rearranged.

    Entry ((j, c, e), (i, a, b)) of the Gram is sum_t K_ti[a, b] conj(K_tj[c, e]),
    row (i, a, j, c) and column (b, e) of the map.
    """
    d, m = basis.dim, orders.m_orders
    g = gram(build_switch_kraus(orders, basis).reshape(-1, m * d * d))
    return g.reshape(m, d, d, m, d, d).transpose(3, 4, 0, 1, 5, 2).reshape((m * d) ** 2, d * d)


def twisted_weyl_basis(dim, seed):
    """Weyl operators conjugated by a fixed random unitary, each with its own phase."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    phases = np.exp(2j * np.pi * rng.random(dim * dim))
    ops = phases[:, None, None] * (v @ weyl_basis(dim).ops @ v.conj().T)
    return UnitaryBasis(dim=dim, ops=ops)


def random_unitaries(dim, seed):
    """d^2 independent random unitaries, not an error basis: W is not (1/d) delta delta."""
    rng = np.random.default_rng(seed)
    shape = (dim * dim, dim, dim)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return UnitaryBasis(dim=dim, ops=q)


def pauli_pauli_basis():
    """The 16 products P_i (x) P_j of the Pauli matrices I, X, Y, Z, at d = 4."""
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return UnitaryBasis(dim=4, ops=np.einsum("iac,jbd->ijabcd", paulis, paulis).reshape(16, 4, 4))


N4_SET = OrderSet(orders=((0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1)))


class TestSwitchMapAgainstTupleGram:
    @pytest.mark.parametrize(
        ("orders", "basis"),
        [
            (all_orders(3), weyl_basis(3)),
            (all_orders(4), weyl_basis(2)),
            (all_orders(4), weyl_basis(3)),
            (cyclic_orders(4), weyl_basis(3)),
            (cyclic_orders(5), weyl_basis(3)),
            (cyclic_orders(2), weyl_basis(12)),
            (all_orders(5), weyl_basis(2)),
            (N4_SET, weyl_basis(3)),
            (all_orders(3), twisted_weyl_basis(3, 1)),
            (N4_SET, twisted_weyl_basis(3, 2)),
            (cyclic_orders(3), twisted_weyl_basis(5, 3)),
            (all_orders(3), random_unitaries(2, 4)),
            (N4_SET, random_unitaries(2, 5)),
            # contraction-bound: 670 relative permutations in each batched step
            (OrderSet(orders=tuple(itertools.permutations(range(6)))[::13]), weyl_basis(2)),
            (cyclic_orders(7), weyl_basis(2)),
            (cyclic_orders(3), pauli_pauli_basis()),
        ],
        ids=[
            "all3-d3", "all4-d2", "all4-d3", "cyclic4-d3", "cyclic5-d3", "cyclic2-d12",
            "all5-d2", "n4-set-d3", "all3-d3-twisted", "n4-set-d3-twisted",
            "cyclic3-d5-twisted", "all3-d2-random", "n4-set-d2-random",
            "n6-every13th-d2", "cyclic7-d2", "cyclic3-d4-pauli-pauli",
        ],
    )
    def test_contraction_equals_the_tuple_gram(self, orders, basis):
        # Every unitary error basis has the same W, so the twisted bases
        # check the literal entries; the random unitaries give another W.
        assert np.abs(dense_map(orders, basis) - tuple_gram_map(orders, basis)).max() < 1e-14

    def test_needs_no_kraus_family(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the Kraus family was built")

        monkeypatch.setattr("switchcap.switch.build_switch_kraus", never)
        orders, basis = all_orders(3), weyl_basis(2)
        out = apply_switch(orders, basis, ControlAmplitudes.uniform(6), np.eye(2) / 2)
        assert out.state.shape == (12, 12)
        # the all-order qubit rate at N=3, below the paper's 0.1395
        assert holevo_oracle(orders, basis) == pytest.approx(0.0981, abs=1e-4)

    def test_memory_stays_below_the_kraus_family(self):
        # N=5, d=3 cyclic: the Kraus family alone is 3^10 * 5 * 9 complex entries
        orders, basis = cyclic_orders(5), weyl_basis(3)
        family = 16 * 3**10 * 5 * 9
        tracemalloc.start()
        try:
            apply_switch(orders, basis, ControlAmplitudes.uniform(5), np.eye(3) / 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < family / 4


def haar_rotated_basis(dim, seed):
    """ops'_k = sum_u V_ku U_u over the Weyl operators, V a seeded Haar d^2 x d^2 unitary."""
    rng = np.random.default_rng(seed)
    shape = (dim * dim, dim * dim)
    q, r = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    return UnitaryBasis(dim=dim, ops=np.einsum("ku,uab->kab", v, weyl_basis(dim).ops))


def rank_one_basis(dim):
    """The non-normal operators sqrt(d) |a><b|, a and b in {0..d-1}."""
    return UnitaryBasis(dim=dim, ops=math.sqrt(dim) * np.eye(dim * dim).reshape(-1, dim, dim))


KRAUS_LISTS = {
    "haar-rotated": lambda d: haar_rotated_basis(d, 19),
    "rank-one": rank_one_basis,
    "pauli-pauli": lambda d: pauli_pauli_basis(),
}

DECOMPOSITION_CASES = [
    pytest.param(orders, d, chi, kraus, id=f"{label}-d{d}-{kraus}")
    for label, orders, d, chi in [
        ("cyclic3", cyclic_orders(3), 2, 0.081704165946),
        ("all3", all_orders(3), 3, 0.033960762070),
        ("all4", all_orders(4), 2, 0.153274518153),
        ("cyclic3", cyclic_orders(3), 4, 0.015712127384),
    ]
    for kraus in KRAUS_LISTS
    if kraus != "pauli-pauli" or d == 4
]


class TestKrausDecompositionInvariance:
    """The switch depends on the channel, not on the Kraus list that decomposes it."""

    @staticmethod
    def quantities(orders, basis):
        d, m = basis.dim, orders.m_orders
        rho = random_density_matrix(d, np.random.default_rng(17))
        first = OrderSet(orders=orders.orders[:1])
        return (
            _switch_map(orders, basis).blocks,
            apply_switch(orders, basis, ControlAmplitudes.uniform(m), rho).state,
            check_completeness(build_switch_kraus(first, basis)),
            holevo_oracle(orders, basis, n_samples=8, seed=7),
        )

    @pytest.mark.parametrize(("orders", "d", "chi", "kraus"), DECOMPOSITION_CASES)
    def test_every_quantity_matches_the_weyl_list(self, orders, d, chi, kraus):
        basis = KRAUS_LISTS[kraus](d)
        # d^2 operators with Gram d I: Kraus operators ops/d of the same channel
        flat = basis.ops.reshape(d * d, d * d)
        assert np.abs(flat @ flat.conj().T - d * np.eye(d * d)).max() < 1e-13
        weyl = self.quantities(orders, weyl_basis(d))
        other = self.quantities(orders, basis)
        assert np.abs(other[0] - weyl[0]).max() < 1e-14
        assert np.abs(other[1] - weyl[1]).max() < 1e-14
        assert abs(other[2] - weyl[2]) < 1e-14
        assert abs(other[3] - weyl[3]) < 1e-14
        assert weyl[3] == pytest.approx(chi, abs=1e-12)


@pytest.mark.parametrize(
    "orders",
    [
        *(all_orders(n) for n in range(2, 6)),
        *(cyclic_orders(n) for n in range(2, 10)),
        OrderSet(orders=tuple(itertools.permutations(range(6)))[::2]),
    ],
    ids=[*(f"all-{n}" for n in range(2, 6)), *(f"cyclic-{n}" for n in range(2, 10)), "every-second-6"],
)
def test_relative_orders_contract(orders):
    perms, which = _relative_orders(orders)
    rows = [tuple(row) for row in perms.tolist()]
    # distinct rows in lexicographic order
    assert rows == sorted(set(rows))
    n = orders.n_channels
    assert all(rows[which[i, i]] == tuple(range(n)) for i in range(orders.m_orders))
    # row which[i, j] sends position p of order i to that channel's position in order j
    for i, a in enumerate(orders.orders):
        for j, b in enumerate(orders.orders):
            assert rows[which[i, j]] == tuple(b.index(channel) for channel in a)


class TestSwitchMap:
    def test_map_is_read_only(self):
        built = _switch_map(cyclic_orders(3), weyl_basis(2))
        # three cyclic orders give three relative permutations
        assert built.blocks.shape == (3, 4, 4)
        assert built.index.shape == (3, 2, 3, 2)
        for array in (built.blocks, built.index):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0

    def test_two_builds_are_bit_identical(self):
        # the same objects, or equal ones, build a new map with the same bits
        orders, basis = cyclic_orders(3), weyl_basis(2)
        first = _switch_map(orders, basis)
        for key in [(orders, basis), (cyclic_orders(3), weyl_basis(2))]:
            again = _switch_map(*key)
            pairs = [(again.blocks, first.blocks), (again.index, first.index)]
            assert all(a is not b and np.array_equal(a, b) for a, b in pairs)

    def test_given_map_is_not_contracted_again(self, monkeypatch):
        # a map passed as switch_map is used as given, with the same result
        orders, basis = all_orders(3), weyl_basis(2)
        c, rho = ControlAmplitudes.uniform(6), random_density_matrix(2, np.random.default_rng(3))
        state = apply_switch(orders, basis, c, rho).state
        chi = holevo_oracle(orders, basis)
        built = _switch_map(orders, basis)

        def never(*args):
            raise AssertionError("the switch map was contracted again")

        monkeypatch.setattr(switch, "_contract", never)
        assert np.array_equal(apply_switch(orders, basis, c, rho, switch_map=built).state, state)
        assert holevo_oracle(orders, basis, switch_map=built) == chi

    @pytest.mark.parametrize(
        ("other", "d"),
        [
            (OrderSet(orders=((0, 1, 2),)), 2),
            (cyclic_orders(2), 2),
            (all_orders(3), 2),
            (cyclic_orders(3), 3),
        ],
        ids=["one-order", "two-orders", "six-orders", "other-dim"],
    )
    def test_map_of_another_shape_raises(self, other, d):
        # a map built for another M or d raises before any state is returned
        orders, basis = cyclic_orders(3), weyl_basis(2)
        built = _switch_map(other, weyl_basis(d))
        c = ControlAmplitudes.uniform(3)
        with pytest.raises(ValueError):
            apply_switch(orders, basis, c, np.eye(2) / 2, switch_map=built)
        with pytest.raises(ValueError):
            holevo_oracle(orders, basis, switch_map=built)

    def test_map_of_another_order_set_of_the_same_shape_raises(self):
        # a map for cyclic_orders(2) fits the M and d of the two orders of
        # three channels below, but would give them chi_oracle 0.0488 where
        # their own map gives 0.0
        orders, basis = OrderSet(orders=((0, 1, 2), (1, 0, 2))), weyl_basis(2)
        foreign = _switch_map(cyclic_orders(2), basis)
        c, rho = ControlAmplitudes.uniform(2), random_density_matrix(2, np.random.default_rng(5))
        with pytest.raises(DomainError, match="another order set or basis"):
            apply_switch(orders, basis, c, rho, switch_map=foreign)
        with pytest.raises(DomainError, match="another order set or basis"):
            holevo_oracle(orders, basis, switch_map=foreign)
        assert abs(holevo_oracle(orders, basis)) < 1e-12

    def test_map_of_another_basis_object_raises(self):
        # bases compare by identity, so an equal Weyl basis built again is refused
        orders, basis = cyclic_orders(2), weyl_basis(2)
        built = _switch_map(orders, weyl_basis(2))
        with pytest.raises(DomainError, match="another order set or basis"):
            apply_switch(orders, basis, ControlAmplitudes.uniform(2), np.eye(2) / 2, switch_map=built)
        with pytest.raises(DomainError, match="another order set or basis"):
            holevo_oracle(orders, basis, switch_map=built)

    def test_map_of_an_equal_order_set_is_used(self, monkeypatch):
        # an order set equal to the map's, built again, takes the map as given
        basis = weyl_basis(2)
        built = _switch_map(cyclic_orders(3), basis)

        def never(*args):
            raise AssertionError("the switch map was built again")

        monkeypatch.setattr(switch, "_switch_map", never)
        assert abs(holevo_oracle(cyclic_orders(3), basis, switch_map=built) - 0.0817) < 1e-4

    def test_oracle_checks_seed_samples_and_guard_before_the_map(self, monkeypatch):
        # a foreign map is refused only after the oracle's own argument checks
        orders, basis = cyclic_orders(2), weyl_basis(2)
        foreign = _switch_map(cyclic_orders(3), basis)
        with pytest.raises(DomainError, match="seed"):
            holevo_oracle(orders, basis, seed=-1, switch_map=foreign)
        with pytest.raises(DomainError, match="sample count"):
            holevo_oracle(orders, basis, n_samples=0, switch_map=foreign)
        monkeypatch.setattr(switch, "BYTE_BUDGET", 2**10)
        with pytest.raises(SizeGuardError):
            holevo_oracle(orders, basis, switch_map=foreign)

    def test_alias_of_the_given_operators_cannot_stale_the_map(self):
        # a view of the caller's array, taken before the basis was built,
        # writes only to the caller's array and not to the basis's copy
        weyl = weyl_basis(2)
        ops = weyl.ops.copy()
        view = ops[:]
        basis, orders = UnitaryBasis(dim=2, ops=ops), cyclic_orders(2)
        c, rho = ControlAmplitudes.uniform(2), random_density_matrix(2, np.random.default_rng(16))
        apply_switch(orders, basis, c, rho)
        view[1] = view[1] @ np.diag([1, np.exp(0.5j)])
        assert np.array_equal(basis.ops, weyl.ops)
        again = apply_switch(orders, basis, c, rho).state
        assert np.array_equal(again, apply_switch(orders, weyl, c, rho).state)
        assert ops.flags.writeable


def raw_block(orders, basis, i, j, rho):
    """The (i, j) block of the switch output before amplitude scaling."""
    c = ControlAmplitudes.uniform(orders.m_orders)
    out = apply_switch(orders, basis, c, rho)
    return out.block(i, j) / (c.values[i] * c.values[j])


class TestCrossTerm:
    @pytest.mark.parametrize("d", [2, 3])
    def test_two_channels_gives_scaled_state(self, d):
        basis = weyl_basis(d)
        rho = random_density_matrix(d, np.random.default_rng(d))
        blk = raw_block(cyclic_orders(2), basis, 0, 1, rho)
        assert np.abs(blk - rho / d**2).max() < 1e-13

    def test_three_channel_cyclic_pair(self):
        basis = weyl_basis(2)
        rho = random_density_matrix(2, np.random.default_rng(12))
        blk = raw_block(cyclic_orders(3), basis, 0, 1, rho)
        assert np.abs(blk - rho / 4).max() < 1e-13

    def test_non_cyclic_pair_measured_structure(self):
        # (0,1,2) against (1,0,2) does not reproduce rho/d^2; the exhaustive
        # 64-tuple sum lands on I/d^3 for this operator basis
        basis = weyl_basis(2)
        rho = random_density_matrix(2, np.random.default_rng(13))
        orders = OrderSet(orders=((0, 1, 2), (1, 0, 2)))
        blk = raw_block(orders, basis, 0, 1, rho)
        oracle = naive_cross_block((0, 1, 2), (1, 0, 2), basis, rho)
        assert np.abs(blk - oracle).max() < 1e-13
        assert np.abs(blk - np.eye(2) / 8).max() < 1e-12
        assert np.abs(blk - rho / 4).max() > 1e-3

    def test_four_channel_non_cyclic_pair_matches_naive_sum(self):
        basis = weyl_basis(2)
        rho = random_density_matrix(2, np.random.default_rng(14))
        orders = OrderSet(orders=((0, 1, 2, 3), (1, 3, 0, 2)))
        blk = raw_block(orders, basis, 0, 1, rho)
        oracle = naive_cross_block((0, 1, 2, 3), (1, 3, 0, 2), basis, rho)
        assert np.abs(blk - oracle).max() < 1e-13

    @pytest.mark.parametrize(
        ("n", "d"), [(3, 2), (4, 2), (3, 3)], ids=["all-3-d2", "all-4-d2", "all-3-d3"]
    )
    def test_off_diagonal_block_misses_closed_form_iff_unrelated(self, n, d):
        # every off-diagonal block is rho/d^2 within 1e-12 when its pair is a
        # cyclic shift, and misses it by more than 1e-3 otherwise
        orders = all_orders(n)
        m = orders.m_orders
        rho = random_density_matrix(d, np.random.default_rng(15))
        # uniform amplitudes scale every block by 1/M
        state = apply_switch(orders, weyl_basis(d), ControlAmplitudes.uniform(m), rho).state
        blocks = state.reshape(m, d, m, d) * m
        miss = np.abs(blocks - (rho / d**2)[None, :, None, :]).max(axis=(1, 3))
        for i, a in enumerate(orders.orders):
            for j, b in enumerate(orders.orders):
                if i != j:
                    assert (miss[i, j] > 1e-3) != cyclically_related(a, b)
                    assert miss[i, j] > 1e-3 or miss[i, j] < 1e-12

    def test_four_channel_unrelated_pairs_split_between_two_blocks(self):
        # over all 24 orders of N = 4 at d = 2, the 480 off-diagonal pairs
        # that are not cyclic shifts give I/d^3 or rho/d^4, never rho/d^2
        orders, d = all_orders(4), 2
        m = orders.m_orders
        rho = random_density_matrix(d, np.random.default_rng(16))
        state = apply_switch(orders, weyl_basis(d), ControlAmplitudes.uniform(m), rho).state
        blocks = state.reshape(m, d, m, d).transpose(0, 2, 1, 3) * m
        counts = {"identity": 0, "rho": 0}
        for i, a in enumerate(orders.orders):
            for j, b in enumerate(orders.orders):
                if i == j or cyclically_related(a, b):
                    continue
                if np.abs(blocks[i, j] - np.eye(d) / d**3).max() < 1e-13:
                    counts["identity"] += 1
                else:
                    assert np.abs(blocks[i, j] - rho / d**4).max() < 1e-13
                    counts["rho"] += 1
        assert counts == {"identity": 288, "rho": 192}


EXPLICIT_N4 = OrderSet(orders=((0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1)))


class TestHolevoOracle:
    def test_two_channels_qubit(self):
        got = holevo_oracle(cyclic_orders(2), weyl_basis(2), n_samples=64, seed=42)
        assert got == pytest.approx(0.0488, abs=1e-4)

    def test_three_channels_qubit(self):
        got = holevo_oracle(cyclic_orders(3), weyl_basis(2), n_samples=64, seed=42)
        assert got == pytest.approx(0.0817, abs=1e-4)

    def test_all_orders_four_channels_qubit_pinned(self):
        got = holevo_oracle(all_orders(4), weyl_basis(2), n_samples=64, seed=42)
        assert got == pytest.approx(0.15327451815292115, abs=1e-9)

    def test_all_orders_five_channels_qubit(self):
        # the rate over all 120 orders, against the independent pair-rule value
        got = holevo_oracle(all_orders(5), weyl_basis(2))
        assert got == pytest.approx(0.1924, abs=5e-5)

    @pytest.mark.parametrize(
        ("orders", "d", "seed", "chi"),
        [
            (cyclic_orders(4), 3, 42, 0.04411041774840241),
            (all_orders(4), 2, 42, 0.15327451815291493),
            (all_orders(3), 3, 42, 0.03396076206982723),
            (cyclic_orders(5), 3, 42, 0.05373234828123774),
            (all_orders(5), 2, 42, 0.19237270727010536),
            (EXPLICIT_N4, 3, 42, 0.00043295985179758745),
            (cyclic_orders(4), 3, 7919, 0.04411041774840241),
            (all_orders(4), 2, 7919, 0.15327451815291493),
            (all_orders(3), 3, 7919, 0.03396076206982812),
            (cyclic_orders(5), 3, 7919, 0.05373234828123863),
            (all_orders(5), 2, 7919, 0.19237270727010714),
            (EXPLICIT_N4, 3, 7919, 0.00043295985179758745),
        ],
        ids=[
            f"{name}-{seed}"
            for seed in (42, 7919)
            for name in ("cyclic4-d3", "all4-d2", "all3-d3", "cyclic5-d3", "all5-d2", "explicit-d3")
        ],
    )
    def test_pinned_values(self, orders, d, seed, chi):
        # values of the oracle that took one entropy per output state, to 1e-14
        assert abs(holevo_oracle(orders, weyl_basis(d), seed=seed) - chi) <= 1e-14

    def test_memory_is_the_guard_oracle_term(self):
        # the map's blocks and index, the 2^14 bytes the guard allows for small
        # objects, the 64 pure vectors, the 65 stacked spectra, one output
        # state and what hermitian_spectrum holds beside it: 16 P d^4
        # + 8 (M d)^2 + 2^14 + 16 * 64 d + 8 * 65 M d + 56 (M d)^2 bytes,
        # within 5 %, over all 120 orders, whose relative permutations are
        # all P = 120.
        # The warm-up loads what numpy imports lazily; the measured call
        # builds its own map.
        orders, d = all_orders(5), 2
        basis = weyl_basis(d)
        holevo_oracle(orders, basis, n_samples=d)
        tracemalloc.start()
        try:
            holevo_oracle(orders, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        md = orders.m_orders * d
        term = 16 * 120 * d**4 + 8 * md**2 + 2**14 + 16 * 64 * d + 8 * 65 * md + 56 * md**2
        assert 0.95 * term <= peak <= 1.05 * term

    @pytest.mark.parametrize(
        ("orders", "d"),
        [(all_orders(4), 2), (all_orders(4), 3), (cyclic_orders(2), 12)],
        ids=["all4-d2", "all4-d3", "cyclic2-d12"],
    )
    def test_memory_beside_a_held_map_is_within_the_oracle_stages(self, orders, d):
        # With the map built beforehand, the call's peak is at most 2^14 bytes
        # of small objects and the largest of the guard's oracle stages: an
        # output state scaled by one scalar and hermitian_spectrum's
        # contiguous copies fit the 56 (M d)^2 that the guard counts for them.
        basis, n = weyl_basis(d), 64
        held = _switch_map(orders, basis)
        holevo_oracle(orders, basis, n_samples=d, switch_map=held)
        tracemalloc.start()
        try:
            holevo_oracle(orders, basis, n_samples=n, switch_map=held)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        md = orders.m_orders * d
        stages = (48 * d * n, 16 * d * n + 8 * (n + 1) * md + 56 * md**2, 25 * (n + 1) * md)
        assert peak <= 2**14 + max(stages)

    def test_single_order_transmits_nothing(self):
        orders = OrderSet(orders=((0, 1),))
        got = holevo_oracle(orders, weyl_basis(3), n_samples=8, seed=1)
        assert abs(got) < 1e-12

    def test_minimum_never_increases_with_more_samples(self):
        orders = cyclic_orders(2)
        basis = weyl_basis(3)
        small = holevo_oracle(orders, basis, n_samples=8, seed=5)
        large = holevo_oracle(orders, basis, n_samples=32, seed=5)
        assert large >= small - 1e-12

    @pytest.mark.parametrize(
        ("orders", "d"), [(all_orders(3), 2), (cyclic_orders(4), 3)], ids=["all3-d2", "cyclic4-d3"]
    )
    def test_seed_does_not_move_the_weyl_rate(self, orders, d):
        # every pure input has the same output entropy under the Weyl basis
        basis = weyl_basis(d)
        chis = [holevo_oracle(orders, basis, seed=seed) for seed in (0, 42, 7919, 2**70)]
        assert max(chis) - min(chis) < 1e-12

    @pytest.mark.parametrize(("d", "n_samples"), [(2, 64), (3, 8), (12, 13), (3, 3)])
    def test_samples_are_the_per_call_haar_draws(self, monkeypatch, d, n_samples):
        # the oracle's inputs after the mixed state and the d basis states
        # are the projectors of n_samples - d successive haar_random_state
        # draws, bit for bit: both come from one batch draw
        inputs = []
        output_state = switch._output_state

        def recording(switch_map, amplitudes, rho):
            inputs.append(rho)
            return output_state(switch_map, amplitudes, rho)

        monkeypatch.setattr(switch, "_output_state", recording)
        holevo_oracle(cyclic_orders(2), weyl_basis(d), n_samples=n_samples, seed=7919)
        assert len(inputs) == 1 + n_samples
        assert np.array_equal(inputs[1 : 1 + d], np.eye(d)[:, :, None] * np.eye(d)[:, None, :])
        source = NormalSource(7919)
        for rho in inputs[1 + d :]:
            v = haar_random_state(d, source)
            assert np.array_equal(rho, np.outer(v, v.conj()))

    def test_rejects_negative_seed_before_any_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the switch map was built")

        monkeypatch.setattr("switchcap.switch._switch_map", never)
        with pytest.raises(DomainError, match="seed"):
            holevo_oracle(cyclic_orders(2), weyl_basis(2), seed=-1)

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            holevo_oracle(cyclic_orders(2), weyl_basis(2), n_samples=0)

    def test_rejects_samples_above_cap_before_any_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the switch map was built")

        monkeypatch.setattr("switchcap.switch._switch_map", never)
        with pytest.raises(DomainError):
            holevo_oracle(cyclic_orders(2), weyl_basis(2), n_samples=MAX_ORACLE_SAMPLES + 1)

    def test_state_budget_boundary(self):
        # N=5, d=2 over all 120 orders: beside the switch map and 2^14 bytes
        # of small objects, the guard's entropy stage binds, the n + 1
        # stacked spectra of M d = 240 values with the entropy pass's two
        # float arrays and its mask, 25 (n + 1) M d bytes.  N=2 at d=2 and
        # at d=13 reach the sample cap before the budget.
        held = 16 * 120 * 2**4 + 8 * 240**2
        largest = (BYTE_BUDGET - held - 2**14) // (25 * 240) - 1
        assert largest == 44_653
        check_size_guard(5, 120, 2, largest)
        with pytest.raises(SizeGuardError):
            check_size_guard(5, 120, 2, largest + 1)
        with pytest.raises(SizeGuardError):
            holevo_oracle(all_orders(5), weyl_basis(2), n_samples=largest + 1)
        check_size_guard(2, 2, 2, MAX_ORACLE_SAMPLES)
        check_size_guard(2, 2, 13, MAX_ORACLE_SAMPLES)

    def test_state_budget_message_past_the_float_range(self):
        # the switch map's index and one output state, 64 (M d)^2 bytes for
        # M = 10^600 orders, are past the largest float
        with pytest.raises(SizeGuardError, match="needs ~2\\^3995 bytes"):
            check_size_guard(2, 10**600, 2)

    @pytest.mark.parametrize(("d", "bits"), [(2, 18), (4, 18), (6, 22)])
    def test_guard_counts_the_oracle_peak(self, monkeypatch, d, bits):
        # Under a small budget, the largest sample count the guard admits
        # runs within it, and the guard's count is the tracemalloc peak of
        # the whole call, the map's build included, within 10 %.  One more
        # sample is refused before any map is built or any number drawn.
        monkeypatch.setattr(switch, "BYTE_BUDGET", 2**bits)
        orders = cyclic_orders(2)
        low, high = 1, MAX_ORACLE_SAMPLES
        while low < high:
            mid = (low + high + 1) // 2
            try:
                check_size_guard(2, 2, d, mid)
                low = mid
            except SizeGuardError:
                high = mid - 1
        count = check_size_guard(2, 2, d, low)
        basis = weyl_basis(d)
        tracemalloc.start()
        try:
            holevo_oracle(orders, basis, n_samples=low)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= count <= 2**bits
        assert count <= 1.1 * peak

        def never(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(switch, "_switch_map", never)
        monkeypatch.setattr(NormalSource, "standard_normal", never)
        with pytest.raises(SizeGuardError):
            holevo_oracle(orders, basis, n_samples=low + 1)

    def test_guard_counts_the_oracle_stages_at_a_wide_target(self):
        # N=2, d=13, where an input stack would be the largest oracle array.
        # The guard's count there is the Kraus family's, 2.3e8 bytes, so no
        # small budget isolates the oracle as the test above does.  Instead,
        # with the map built beforehand, the call's peak beside it is K + 2^14
        # and the largest of the guard's oracle stages, within 5 % as in
        # test_memory_is_the_guard_oracle_term: the draws, 48 d n; the pure
        # vectors, the stacked spectra S and one output state, 16 d n + S
        # + 56 (M d)^2; or the entropy pass, 25 (n + 1) M d, which binds at
        # 4000 samples.
        orders, d, n = cyclic_orders(2), 13, 4000
        basis = weyl_basis(d)
        held = _switch_map(orders, basis)
        holevo_oracle(orders, basis, n_samples=d, switch_map=held)
        tracemalloc.start()
        try:
            holevo_oracle(orders, basis, n_samples=n, switch_map=held)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak += held.blocks.nbytes + held.index.nbytes
        md = orders.m_orders * d
        stages = (48 * d * n, 16 * d * n + 8 * (n + 1) * md + 56 * md**2, 25 * (n + 1) * md)
        term = 16 * 2 * d**4 + 8 * md**2 + 2**14 + max(stages)
        assert 0.95 * term <= peak <= 1.05 * term


class TestNormalSource:
    @pytest.mark.parametrize(("size", "shape"), [(5, (5,)), ((2, 3), (2, 3)), ((4,), (4,)), (0, (0,))])
    def test_returns_the_requested_shape(self, size, shape):
        draws = NormalSource(1).standard_normal(size)
        assert draws.shape == shape
        assert draws.dtype == np.float64

    def test_same_seed_same_draws(self):
        assert np.array_equal(
            NormalSource(7919).standard_normal((3, 4)), NormalSource(7919).standard_normal((3, 4))
        )
        assert not np.array_equal(
            NormalSource(1).standard_normal(8), NormalSource(2).standard_normal(8)
        )

    def test_fewer_draws_are_a_prefix(self):
        # holevo_oracle's 8 samples are the first of its 32
        many = NormalSource(5).standard_normal(32)
        assert np.array_equal(NormalSource(5).standard_normal(8), many[:8])
        source = NormalSource(5)
        parts = [source.standard_normal(3), source.standard_normal((5, 2)).ravel()]
        assert np.array_equal(np.concatenate(parts), many[:13])

    def test_draws_are_standard_normal(self):
        draws = NormalSource(3).standard_normal(20000)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_rejects_negative_seed(self):
        # random.Random(-s) would repeat the stream of s
        with pytest.raises(DomainError) as caught:
            NormalSource(-1)
        assert str(caught.value) == "seed must be at least 0, got -1"

    def test_drives_the_state_samplers(self):
        v = haar_random_state(5, NormalSource(99))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.array_equal(v, haar_random_state(5, NormalSource(99)))
        rho = random_density_matrix(4, NormalSource(3))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert hermitian_spectrum(rho)[-1] > 0.0


class TestSampling:
    def test_haar_state_normalized_and_deterministic(self):
        v1 = haar_random_state(5, np.random.default_rng(99))
        v2 = haar_random_state(5, np.random.default_rng(99))
        assert abs(np.linalg.norm(v1) - 1.0) < 1e-12
        assert np.array_equal(v1, v2)

    def test_random_density_matrix_is_valid(self):
        rho = random_density_matrix(4, np.random.default_rng(3))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert hermitian_spectrum(rho)[-1] > 0.0

    def test_pure_state_entropy_zero(self):
        v = haar_random_state(3, np.random.default_rng(21))
        rho = np.outer(v, v.conj())
        assert von_neumann_entropy(hermitian_spectrum(rho)) < 1e-12
