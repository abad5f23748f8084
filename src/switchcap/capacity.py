"""Closed-form communication rates for depolarizing channels in a switch.

All quantities depend on the number of superposed causal orders M and the
target dimension d alone; the number of channels enters only through the
brute-force oracle.  Control amplitudes are uniform (1/sqrt(M)) throughout,
and every entropy is in bits.

The joint output state for a target state rho is the M x M block matrix with
I/d (1/M-weighted) on the diagonal and rho/d^2 (1/M-weighted) off the
diagonal.  Its spectrum splits into two families driven by the eigenvalues
p of rho:

    1/(M d) + (M - 1) p / (M d^2)   once per p,
    1/(M d) -           p / (M d^2)   with multiplicity M - 1 per p.

The reduced control state has the single eigenvalue (M - 1 + d^2) / (M d^2)
plus (d^2 - 1) / (M d^2) with multiplicity M - 1.

``holevo`` owns the entropies of these two spectra, S_min at a pure input
and S(control): ``s_min`` and ``control_entropy`` return its fields.

NumPy is imported inside each function that builds arrays, not at
module level: ``holevo`` and ``asymptotic_limit`` need ``math`` alone, so
a caller of the closed forms never pays numpy's import.  ``_holevo_block``
evaluates ``holevo`` over an array of orders to the same bits, for grids
large enough to repay that import.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DimensionOutOfRangeError,
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    _instance,
    _integer,
)
from .linalg import _square_state, hermitian_spectrum, validate_spectrum
from .switch import ControlAmplitudes

if TYPE_CHECKING:
    import numpy as np

# Target dimensions every closed form accepts.  chi = log2(d) + S(control)
# - S_min cancels terms of size log2(d) down to a rate that shrinks with d,
# so digits are lost as d grows.  Against a 50-digit evaluation for M up to
# 10^6 the relative error is ~5e-11 at d=64 (ten good digits), ~1e-6 at
# d=1024, and chi turns negative by d=10^7.
DIM_RANGE = (2, 64)

# Largest joint dimension M*d accepted by the determinant check.
MAX_DETERMINANT_DIM = 256


class CapacityReport(NamedTuple):
    """Communication-rate summary for one (M, d) point, all values in bits.

    A named tuple, so it is immutable and costs a fraction of a frozen
    dataclass to build; the closed-form grid builds one per point.
    ``holevo`` builds it with ``tuple.__new__`` on the class, which gives the
    same object as ``CapacityReport(...)`` without the Python frame of the
    generated ``__new__`` on every grid point.
    """

    m_orders: int
    dim: int
    s_min: float
    s_control: float
    chi: float


_new_tuple = tuple.__new__


def _check_point(m_orders: int, dim: int) -> None:
    """Raise DomainError unless M >= 1 and d in DIM_RANGE are integers (``errors._integer``)."""
    _integer("number of orders", m_orders, 1)
    _integer("dimension", dim, *DIM_RANGE)


def output_spectrum(m_orders: int, dim: int, rho_spectrum: np.ndarray) -> np.ndarray:
    """Spectrum of the joint output state for a target with the given spectrum.

    Returns the M*d values sorted in descending order; they sum to 1.
    """
    import numpy as np
    _check_point(m_orders, dim)
    p = np.asarray(rho_spectrum, dtype=float).ravel()
    if p.size != dim:
        raise InvalidSpectrumError(f"expected {dim} eigenvalues, got {p.size}")
    validate_spectrum(p)
    base = 1.0 / (m_orders * dim)
    plus = base + (m_orders - 1) * p / (m_orders * dim * dim)
    minus = base - p / (m_orders * dim * dim)
    values = np.concatenate([plus, np.tile(minus, m_orders - 1)])
    return np.sort(values)[::-1]


def s_min(m_orders: int, dim: int) -> float:
    """Smallest output entropy over target states, attained at pure inputs.

    The closed form lives in ``holevo``; this returns its ``s_min``.
    """
    return holevo(m_orders, dim).s_min


def control_entropy(m_orders: int, dim: int) -> float:
    """Entropy of the reduced control state after the switch.

    The closed form lives in ``holevo``; this returns its ``s_control``.
    """
    return holevo(m_orders, dim).s_control


def _entropies(m, d, log2):
    """S_min and S(control) in bits at M >= 2 orders and dimension d.

    The one place these closed forms are written.  ``m`` is an int for
    ``holevo`` or an int64 array for ``_holevo_block``; ``log2`` takes every
    logarithm, so both routes round the same operations in the same order.
    """
    md2 = m * d * d
    top = (d + m - 1) / md2
    low = (d - 1) / md2
    smin = -(
        top * log2(top)
        + (m - 1) * (d - 1) / md2 * log2(low)
        + (d - 1) / d * log2(1.0 / (m * d))
    )
    top = (m - 1 + d * d) / md2
    rest = (d * d - 1) / md2
    scontrol = -(top * log2(top) + (m - 1) * rest * log2(rest))
    return smin, scontrol


def holevo(m_orders: int, dim: int) -> CapacityReport:
    """Holevo quantity log2(d) + S(control) - S_min for M superposed orders.

    S_min and S(control) come from ``_entropies``, taking logarithms with
    ``math.log2``; ``s_min`` and ``control_entropy`` read them from the
    report.  A single order (M=1) transmits nothing: chi is exactly 0.

    M and d must be integers (see ``_check_point``).  A plain ``int`` point
    inside the range passes one inline test; anything else, NumPy integers
    included, goes through ``_check_point``, which raises every DomainError.
    """
    # Measured on an Intel Xeon, CPython 3.11: 200 000 points took 0.298 s
    # with this test and 0.345 s through _check_point (faster in 18 of 20).
    if not (
        type(m_orders) is int
        and type(dim) is int
        and m_orders >= 1
        and DIM_RANGE[0] <= dim <= DIM_RANGE[1]
    ):
        _check_point(m_orders, dim)
    if m_orders == 1:
        smin, scontrol = math.log2(dim), 0.0
    else:
        smin, scontrol = _entropies(m_orders, dim, math.log2)
    chi = math.log2(dim) + scontrol - smin
    return _new_tuple(CapacityReport, (m_orders, dim, smin, scontrol, chi))


def _holevo_block(orders: list[int], dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``holevo``'s (s_min, s_control, chi) at each M of ``orders`` and one d.

    The same floats as one ``holevo`` call per point, bit for bit: NumPy
    does ``_entropies``' arithmetic elementwise in the same order, and each
    logarithm goes through ``math.log2`` one value at a time, since
    ``np.log2`` can differ from libm in the last bit.  M = 1 takes
    ``holevo``'s exact branch.  The points are not checked: the caller
    validates the grid.
    """
    import numpy as np

    def log2(x):
        return np.fromiter(map(math.log2, x.tolist()), float, count=len(x))

    m = np.array(orders, dtype=np.int64)
    smin, scontrol = _entropies(m, dim, log2)
    single = m == 1
    smin[single] = math.log2(dim)
    scontrol[single] = 0.0
    chi = math.log2(dim) + scontrol - smin
    return smin, scontrol, chi


def asymptotic_limit(dim: int) -> float:
    """The M -> infinity limit of the Holevo quantity, in bits.

    The log2(M) terms of the control entropy and the min-entropy cancel,
    leaving

        (2d - 1)/d * log2(d)
        - (d^2 - 1)/d^2 * log2(d + 1)
        - (d - 1)/d * log2(d - 1).

    For d = 2 this is (3/2) - (3/4) log2(3) ~ 0.3113 bits: adding causal
    orders saturates short of a full bit.
    """
    _check_point(1, dim)
    d = float(dim)
    return (
        (2.0 * d - 1.0) / d * math.log2(d)
        - (d * d - 1.0) / (d * d) * math.log2(d + 1.0)
        - (d - 1.0) / d * math.log2(d - 1.0)
    )


def analytic_output_state(rho: np.ndarray, m_orders: int) -> np.ndarray:
    """Closed-form joint output state as an (M*d) x (M*d) matrix.

    The control amplitudes are uniform, c = 1/sqrt(M): block (i, i) is
    c^2 * I/d and block (i, j) is c^2 * rho/d^2.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square state, got shape {rho.shape}")
    _check_point(m_orders, rho.shape[0])
    c = ControlAmplitudes.uniform(m_orders).as_array()
    d = rho.shape[0]
    weights = np.diag(c * c)
    # Each term is the Kronecker product by broadcasting over (M, d, M, d),
    # the products np.kron takes; the sum is formed in the complex term.
    state = (np.outer(c, c) - weights)[:, None, :, None] * (rho / (d * d))[:, None, :]
    state += weights[:, None, :, None] * (np.eye(d) / d)[:, None, :]
    return state.reshape(m_orders * d, m_orders * d)


def det_factorization_residual(
    m_orders: int,
    basis_dim: int,
    rho: np.ndarray,
    amplitudes: ControlAmplitudes,
) -> float:
    """Relative mismatch of the block determinant factorization.

    The determinant of the joint output state factors into the determinant
    of (I/d + (M-1) rho/d^2)/M times the determinant of (I/d - rho/d^2)/M
    repeated M-1 times.  The spectra of those two factors are the plus and
    minus families of ``output_spectrum``, so the factored side is read from
    it and the full side from the eigenvalues of ``analytic_output_state``.
    Both sides are evaluated in log space (sums of log eigenvalues) because
    the full determinant underflows fixed precision once M*d grows past ~50.
    The factorization holds for uniform amplitudes only, so any other
    amplitude vector, or an ``amplitudes`` that is not a
    ``ControlAmplitudes``, is rejected (DomainError).  rho must be a
    d x d array (DimensionMismatchError) and a state, or ``output_spectrum``
    raises InvalidSpectrumError.  Every eigenvalue of the closed-form state
    is then at least (d-1)/(M d^2) > 0.
    """
    import numpy as np
    _check_point(m_orders, basis_dim)
    if m_orders * basis_dim > MAX_DETERMINANT_DIM:
        raise DimensionOutOfRangeError(
            f"joint dimension {m_orders * basis_dim} exceeds {MAX_DETERMINANT_DIM}"
        )
    _instance("amplitudes", amplitudes, ControlAmplitudes)
    uniform = 1.0 / math.sqrt(m_orders)
    if len(amplitudes) != m_orders or any(
        abs(v - uniform) > 1e-12 for v in amplitudes.values
    ):
        raise DomainError("the determinant factorization requires uniform amplitudes")
    rho = _square_state(rho, basis_dim)

    log_factored = np.log(output_spectrum(m_orders, basis_dim, hermitian_spectrum(rho))).sum()
    log_full = np.log(hermitian_spectrum(analytic_output_state(rho, m_orders))).sum()
    return abs(math.expm1(float(log_factored - log_full)))
