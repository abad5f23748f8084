"""Exact brute-force simulation of a quantum switch of depolarizing channels.

A switch routes the target system through N channels in a coherent
superposition of M causal orders, steered by an M-level control ancilla.
Each causal order is a permutation of the channel slots; the order
(s0, s1, ..., s_{N-1}) composes channel s0's unitary leftmost, i.e. applied
last.  With Kraus index tuple t = (t_0, ..., t_{N-1}) assigning basis element
U_{t_k} to channel k, the switch Kraus operator is

    K_t = (1/d^N) * sum_l |l><l| (x) U_{t_{s_l(0)}} U_{t_{s_l(1)}} ... U_{t_{s_l(N-1)}}

summed over the M orders l.  The joint output on (control (x) target) is the
Kraus sum over all d^(2N) index tuples.  It is linear in the target state
rho, so the simulator contracts the tuple sum once into a superoperator S
with S @ vec(rho) = vec of the output before amplitude scaling, and takes
every output block and sampled rate from S.  Everything is summed in a
fixed deterministic sequence, so results are bit-stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import UnitaryBasis
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    SizeGuardError,
)
from .linalg import hermitian_spectrum, validate_density_matrix, von_neumann_entropy

# Largest channel count for full permutation enumeration.
MAX_FACTORIAL_CHANNELS = 5

# Largest oracle sample count.  Each sample costs one Python-level draw and
# one spectrum, ~0.1 ms at M*d = 4, so the cap keeps the loop near 10 s.
MAX_ORACLE_SAMPLES = 10**5

# Bytes one brute-force array family may take: the Kraus stack plus the
# order products (check_size_guard), or the oracle's sampled output states,
# one complex (M*d, M*d) matrix per sample: ~7000 samples (~3 s) at N=4,
# d=2, M=24 (check_oracle_size).
BYTE_BUDGET = 2**28

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class OrderSet:
    """A list of M distinct causal orders over N channel slots."""

    orders: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise ValueError("an order set needs at least one order")
        n = len(self.orders[0])
        if n < 2:
            raise ValueError("orders must involve at least two channels")
        reference = tuple(range(n))
        for order in self.orders:
            if tuple(sorted(order)) != reference:
                raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError("duplicate causal orders")

    @property
    def n_channels(self) -> int:
        return len(self.orders[0])

    @property
    def m_orders(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class ControlAmplitudes:
    """Nonnegative control amplitudes c_i with sum of squares equal to 1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise InvalidStateError("empty amplitude vector")
        if min(self.values) < 0.0:
            raise InvalidStateError("amplitudes must be nonnegative")
        total = sum(v * v for v in self.values)
        if abs(total - 1.0) > 1e-12:
            raise InvalidStateError(f"squared amplitudes sum to {total!r}, expected 1")

    @classmethod
    def uniform(cls, m: int) -> "ControlAmplitudes":
        if m < 1:
            raise DomainError(f"need at least one order, got {m}")
        return cls(values=tuple([1.0 / math.sqrt(m)] * m))

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass
class SwitchOutput:
    """Joint control (x) target output state with its block decomposition."""

    m_orders: int
    dim: int
    state: np.ndarray

    def __post_init__(self) -> None:
        expected = self.m_orders * self.dim
        if self.state.shape != (expected, expected):
            raise DimensionMismatchError(
                f"state has shape {self.state.shape}, expected ({expected}, {expected})"
            )
        validate_density_matrix(self.state)
        self.state.setflags(write=False)

    def block(self, i: int, j: int) -> np.ndarray:
        """Read-only view of the (i, j) control sector, a dim x dim matrix."""
        d = self.dim
        return self.state[i * d : (i + 1) * d, j * d : (j + 1) * d]


def order_count(n_channels: int, mode: str) -> int:
    """M of the ``cyclic`` or ``all`` order set over N channels, without building it."""
    if n_channels < 2:
        raise DomainError(f"need at least two channels, got {n_channels}")
    if mode == "cyclic":
        return n_channels
    if n_channels > MAX_FACTORIAL_CHANNELS:
        raise SizeGuardError(
            f"{n_channels}! orders exceeds the enumeration guard "
            f"(max {MAX_FACTORIAL_CHANNELS} channels)"
        )
    return math.factorial(n_channels)


def cyclic_orders(n_channels: int) -> OrderSet:
    """The N cyclic shifts of (0, 1, ..., N-1), identity first."""
    order_count(n_channels, "cyclic")
    orders = tuple(
        tuple((shift + i) % n_channels for i in range(n_channels))
        for shift in range(n_channels)
    )
    return OrderSet(orders=orders)


def all_orders(n_channels: int) -> OrderSet:
    """All N! permutations in lexicographic order."""
    order_count(n_channels, "all")
    return OrderSet(orders=tuple(itertools.permutations(range(n_channels))))


def cyclically_related(a: Permutation, b: Permutation) -> bool:
    """True when one order is a cyclic shift of the other."""
    n = len(a)
    if len(b) != n:
        return False
    return any(tuple(a[(i + k) % n] for i in range(n)) == tuple(b) for k in range(n))


def check_size_guard(n_channels: int, m_orders: int, dim: int) -> None:
    """Reject brute-force requests whose arrays exceed the byte budget.

    A request holds d^(2N) complex Kraus operators of (M*d)^2 entries and
    the order products behind them, M*d^2 entries per index tuple.  The
    estimate is taken as a base-10 logarithm, so it stays a small float for
    any N, d and M of at least 1.
    """
    entries = (m_orders * dim) ** 2 + m_orders * dim * dim
    log_size = 2 * n_channels * math.log10(dim) + math.log10(entries * 16)
    if log_size > math.log10(BYTE_BUDGET):
        exponent = math.floor(log_size)
        raise SizeGuardError(
            f"N={n_channels}, d={dim}, M={m_orders} needs "
            f"~{10 ** (log_size - exponent):.2f}e+{exponent:02d} bytes of Kraus "
            f"operators and order products (budget {BYTE_BUDGET:.2e})"
        )


def check_oracle_size(orders: OrderSet, dim: int, n_samples: int) -> None:
    """Reject a sample count out of range or a sample stack above budget."""
    if not 1 <= n_samples <= MAX_ORACLE_SAMPLES:
        raise DomainError(f"sample count {n_samples} outside [1, {MAX_ORACLE_SAMPLES}]")
    # The d basis states are always sampled, plus the maximally mixed input.
    size = (max(n_samples, dim) + 1) * (orders.m_orders * dim) ** 2 * 16
    if size > BYTE_BUDGET:
        raise SizeGuardError(
            f"{n_samples} samples at d={dim}, M={orders.m_orders} need "
            f"~{size:.2e} bytes of output states (budget {BYTE_BUDGET:.2e})"
        )


def _order_products(
    order_list: Sequence[Permutation], basis: UnitaryBasis, n_channels: int
) -> np.ndarray:
    """Per-tuple composed unitaries, shape (d^(2N), M, d, d).

    Tuples run row-major over the channels, the order ``itertools.product``
    lists them.  The chain of products U_a0 U_a1 ... U_a(N-1), axis k for
    factor k, is broadcast once; an order puts channel ``order[k]`` in
    factor k, so its stack is the chain transposed into channel order.
    """
    m = len(order_list)
    check_size_guard(n_channels, m, basis.dim)
    d = basis.dim
    chain = basis.ops
    for _ in range(n_channels - 1):
        chain = chain[..., None, :, :] @ basis.ops
    products = np.empty((d ** (2 * n_channels), m, d, d), dtype=chain.dtype)
    by_channel = products.reshape(chain.shape[:-2] + (m, d, d))
    for l, order in enumerate(order_list):
        by_channel[..., l, :, :] = chain.transpose(*np.argsort(order), n_channels, n_channels + 1)
    return products


def _switch_map(
    order_list: Sequence[Permutation], basis: UnitaryBasis, n_channels: int
) -> np.ndarray:
    """Superoperator of the switch before amplitude scaling, shape ((M*d)^2, d^2).

    Row (i, a, j, c) and column (b, e), both row-major, hold
    (1/d^2N) sum_t P_i(t)[a, b] conj(P_j(t)[c, e]), so ``S @ rho.ravel()``
    is the raveled (M*d, M*d) output whose (i, j) block is
    (1/d^2N) sum_t P_i(t) rho P_j(t)^dagger.
    """
    d = basis.dim
    m = len(order_list)
    products = _order_products(order_list, basis, n_channels)
    flat = products.reshape(len(products), m * d * d)
    gram = flat.T @ flat.conj()
    gram /= float(len(products))
    return gram.reshape(m, d, d, m, d, d).transpose(0, 1, 3, 4, 2, 5).reshape(
        (m * d) ** 2, d * d
    )


def _output_states(
    switch_map: np.ndarray, amplitudes: np.ndarray, rhos: np.ndarray
) -> np.ndarray:
    """Joint outputs for a stack of target states, shape (K, M*d, M*d)."""
    m = len(amplitudes)
    k, d, _ = rhos.shape
    raw = (rhos.reshape(k, d * d) @ switch_map.T).reshape(k, m, d, m, d)
    raw *= np.outer(amplitudes, amplitudes)[:, None, :, None]
    return raw.reshape(k, m * d, m * d)


def build_switch_kraus(orders: OrderSet, basis: UnitaryBasis) -> list[np.ndarray]:
    """The d^(2N) switch Kraus operators, each of shape (M*d, M*d).

    Operator t is block-diagonal over the control index, with block l equal
    to the basis unitaries for tuple t composed in the l-th causal order,
    scaled by 1/d^N overall.
    """
    d = basis.dim
    n = orders.n_channels
    m = orders.m_orders
    products = _order_products(orders.orders, basis, n)
    kraus = np.zeros((len(products), m * d, m * d), dtype=complex)
    for l in range(m):
        kraus[:, l * d : (l + 1) * d, l * d : (l + 1) * d] = products[:, l]
    kraus /= float(d**n)
    return list(kraus)


def apply_switch(
    orders: OrderSet,
    basis: UnitaryBasis,
    amplitudes: ControlAmplitudes,
    rho: np.ndarray,
) -> SwitchOutput:
    """Exact Kraus-sum output of the switch on (sum_i c_i |i>) control.

    The input target state ``rho`` must match the basis dimension.  The
    result satisfies the density-matrix invariants by construction and is
    validated before being returned.
    """
    rho = np.asarray(rho, dtype=complex)
    d = basis.dim
    if rho.shape != (d, d):
        raise DimensionMismatchError(
            f"target state has shape {rho.shape}, basis dimension is {d}"
        )
    if len(amplitudes) != orders.m_orders:
        raise DimensionMismatchError(
            f"{len(amplitudes)} amplitudes for {orders.m_orders} orders"
        )
    switch_map = _switch_map(orders.orders, basis, orders.n_channels)
    (state,) = _output_states(switch_map, amplitudes.as_array(), rho[None])
    return SwitchOutput(m_orders=orders.m_orders, dim=d, state=state)


def haar_random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector from complex Gaussian entries."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix A A^dagger / Tr(A A^dagger)."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def holevo_oracle(
    orders: OrderSet,
    basis: UnitaryBasis,
    n_samples: int = 64,
    seed: int = 42,
) -> float:
    """Sampled lower bound on the switch Holevo quantity, in bits.

    Evaluates S(output on the maximally mixed input) minus the smallest
    output entropy over the sample set, using uniform control amplitudes.
    The sample set always contains the d computational basis states, then
    ``n_samples - d`` Haar-random pure states drawn from the seeded
    generator.  Under the Weyl basis every output block is a multiple of
    rho or of Tr(rho) I for any order set, so every pure input has the same
    output entropy and the value is exact, whatever the sample count; with
    another basis, adding samples can only lower the reported minimum.  A
    sample count outside [1, MAX_ORACLE_SAMPLES] raises DomainError, and one
    whose output states exceed BYTE_BUDGET bytes raises SizeGuardError,
    before any state is drawn.
    """
    d = basis.dim
    check_oracle_size(orders, d, n_samples)
    switch_map = _switch_map(orders.orders, basis, orders.n_channels)
    amplitudes = ControlAmplitudes.uniform(orders.m_orders).as_array()

    rng = np.random.default_rng(seed)
    vectors = [np.eye(d, dtype=complex)[k] for k in range(d)]
    for _ in range(max(0, n_samples - d)):
        vectors.append(haar_random_state(d, rng))
    pure = np.stack(vectors)
    rhos = np.concatenate(
        [np.eye(d, dtype=complex)[None] / d, pure[:, :, None] * pure.conj()[:, None, :]]
    )
    entropies = [
        von_neumann_entropy(hermitian_spectrum(state))
        for state in _output_states(switch_map, amplitudes, rhos)
    ]
    return entropies[0] - min(entropies[1:])
