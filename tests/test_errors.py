"""Tests for the integer check that every integer argument goes through."""

import numpy as np
import pytest

from switchcap.capacity import holevo
from switchcap.channels import UnitaryBasis, weyl_basis
from switchcap.errors import DomainError, _integer
from switchcap.linalg import partial_trace
from switchcap.switch import (
    MAX_ORACLE_SAMPLES,
    ControlAmplitudes,
    NormalSource,
    SwitchOutput,
    check_size_guard,
    cyclic_orders,
    haar_random_state,
    holevo_oracle,
    order_count,
    random_density_matrix,
)

BOUNDED_CALLS = {
    "integer-numpy": (
        lambda: _integer("count", np.int64(0), 1), "count must be at least 1, got 0"
    ),
    "integer-float": (lambda: _integer("count", 2.0, 1), "count must be an integer, got 2.0"),
    "integer-below-floor": (lambda: _integer("count", -1, 0), "count must be at least 0, got -1"),
    "integer-below-range": (lambda: _integer("count", 0, 1, 5), "count 0 outside [1, 5]"),
    "integer-above-range": (lambda: _integer("count", 6, 1, 5), "count 6 outside [1, 5]"),
    "point-orders": (lambda: holevo(0, 2), "number of orders must be at least 1, got 0"),
    "point-dim": (lambda: holevo(2, 65), "dimension 65 outside [2, 64]"),
    "uniform": (
        lambda: ControlAmplitudes.uniform(0), "number of orders must be at least 1, got 0"
    ),
    "order-count": (
        lambda: order_count(1, "cyclic"), "channel count must be at least 2, got 1"
    ),
    "guard-channels": (
        lambda: check_size_guard(1, 2, 2), "channel count must be at least 2, got 1"
    ),
    "guard-orders": (
        lambda: check_size_guard(2, 0, 2), "number of orders must be at least 1, got 0"
    ),
    "guard-dim": (lambda: check_size_guard(2, 2, 1), "dimension must be at least 2, got 1"),
    "guard-samples": (
        lambda: check_size_guard(2, 1, 2, n_samples=-5),
        f"sample count -5 outside [1, {MAX_ORACLE_SAMPLES}]",
    ),
    "seed": (lambda: NormalSource(-1), "seed must be at least 0, got -1"),
    "size-entry": (
        lambda: NormalSource(0).standard_normal((2, -1)), "size entry must be at least 0, got -1"
    ),
    "oracle-samples-below": (
        lambda: holevo_oracle(cyclic_orders(2), weyl_basis(2), n_samples=0),
        f"sample count 0 outside [1, {MAX_ORACLE_SAMPLES}]",
    ),
    "oracle-samples-above": (
        lambda: holevo_oracle(cyclic_orders(2), weyl_basis(2), n_samples=MAX_ORACLE_SAMPLES + 1),
        f"sample count {MAX_ORACLE_SAMPLES + 1} outside [1, {MAX_ORACLE_SAMPLES}]",
    ),
    "block-row": (
        lambda: SwitchOutput(2, 1, np.eye(2) / 2).block(2, 0), "block index 2 outside [0, 1]"
    ),
    "block-column": (
        lambda: SwitchOutput(2, 1, np.eye(2) / 2).block(0, -1), "block index -1 outside [0, 1]"
    ),
    "partial-trace": (
        lambda: partial_trace(np.eye(4) / 4, 2, 0, "A"), "dimension must be at least 1, got 0"
    ),
    "haar-dim": (
        lambda: haar_random_state(0, NormalSource(0)), "dimension must be at least 1, got 0"
    ),
    "density-dim": (
        lambda: random_density_matrix(-1, NormalSource(0)), "dimension must be at least 1, got -1"
    ),
    "output-orders": (
        lambda: SwitchOutput(-1, -2, np.eye(2) / 2),
        "number of orders must be at least 1, got -1",
    ),
    "output-dim": (
        lambda: SwitchOutput(1, 0, np.zeros((0, 0))), "dimension must be at least 1, got 0"
    ),
    "basis-dim": (
        lambda: UnitaryBasis(dim=0, ops=np.zeros((0, 0, 0))),
        "dimension must be at least 1, got 0",
    ),
}


@pytest.mark.parametrize(
    ("call", "message"), BOUNDED_CALLS.values(), ids=BOUNDED_CALLS.keys()
)
def test_bound_message(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    ("value", "low", "high"),
    [(np.int64(3), 3, None), (5, 1, 5), (1, 1, 5), (-7, None, None)],
    ids=["numpy-at-floor", "at-top", "at-bottom", "unbounded"],
)
def test_bounds_are_inclusive_and_give_an_int(value, low, high):
    result = _integer("count", value, low, high)
    assert type(result) is int and result == value


def test_unit_dimension_is_still_accepted():
    # d = 1 is a valid, if trivial, basis and output shape
    assert UnitaryBasis(dim=1, ops=np.ones((1, 1, 1))).dim == 1
    assert SwitchOutput(1, 1, np.ones((1, 1))).dim == 1
