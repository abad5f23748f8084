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
rho, so the simulator contracts the tuple sum once into a superoperator
S = sum_t K_t (x) conj(K_t), with S @ vec(rho) = vec of the output before
amplitude scaling, and takes every output block and sampled rate from S.
Each channel's index appears once in K_t and once in conj(K_t), so S is
built channel by channel: each channel is one batched matrix product over
every relative permutation of the order pairs, its rows grouped by the
factor they meet, and the d^(2N) tuples are never enumerated for it.  The
Kraus family is built only for the completeness check, where ``verify``
builds one order's family.  Block (i, j) of S depends only on the relative
permutation of orders i and j, so S is held as its distinct blocks and an
index of which pair uses which.  Everything is summed in a fixed
deterministic sequence, so results are bit-stable.

The module holds no state between calls.  ``apply_switch`` and
``holevo_oracle`` build the switch map they need, or take as
``switch_map=`` the map that ``_switch_map`` built for the same order set
and basis.  So the block checks and the oracle of one ``verify`` case
share one build, which the case drops when they are done.  A map built for
another order set or basis is refused.

``OrderSet``, ``ControlAmplitudes`` and ``SwitchOutput`` are slotted
record classes (``switchcap._record``) whose fields cannot be reassigned.
The first two store their inputs as tuples, so a caller's list cannot
change them after validation, and compare and hash by value.
``SwitchOutput`` holds an array and compares and hashes by identity.  No
module of the package imports ``dataclasses``.

NumPy is imported inside each function that builds or reads an array, not
at module level, so importing the package loads none; a repeat import of
the loaded module inside a function costs a fraction of a microsecond.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import TYPE_CHECKING, NamedTuple

from ._record import Record
from .channels import UnitaryBasis
from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    SizeGuardError,
    _instance,
    _integer,
)
from .linalg import (
    _square_state, gram, hermitian_spectrum, validate_density_matrix, von_neumann_entropy
)

if TYPE_CHECKING:
    import numpy as np

# Largest channel count for full permutation enumeration.
MAX_FACTORIAL_CHANNELS = 5

# Largest oracle sample count.  Each sample costs one Python-level draw and
# one spectrum, ~0.1 ms at M*d = 4, so the cap keeps the loop near 10 s.
MAX_ORACLE_SAMPLES = 10**5

# The oracle's default sample count, and so the byte guard's.
ORACLE_SAMPLES = 64

# Bytes a brute-force request may hold at its peak (check_size_guard).
BYTE_BUDGET = 2**28

Permutation = tuple[int, ...]


class OrderSet(Record):
    """A list of M distinct causal orders over N channel slots.

    ``orders`` is stored as a tuple of tuples of ints, whatever sequences
    it was given as.  An ``orders`` that is not iterable, or an entry that
    ``operator.index`` refuses, such as the float 1.0, raises DomainError.
    """

    __slots__ = ("orders",)

    orders: tuple[Permutation, ...]

    def __init__(self, orders: tuple[Permutation, ...]) -> None:
        try:
            given = iter(orders)
        except TypeError:
            raise DomainError(f"{orders!r} is not a sequence of orders") from None
        stored = []
        for order in given:
            try:
                stored.append(tuple(map(operator.index, order)))
            except TypeError:
                raise DomainError(f"{order!r} is not a sequence of integers") from None
        orders = tuple(stored)
        if not orders:
            raise DomainError("an order set needs at least one order")
        n = len(orders[0])
        if n < 2:
            raise DomainError("orders must involve at least two channels")
        reference = tuple(range(n))
        for order in orders:
            if tuple(sorted(order)) != reference:
                raise DomainError(f"{order!r} is not a permutation of 0..{n - 1}")
        if len(set(orders)) != len(orders):
            raise DomainError("duplicate causal orders")
        object.__setattr__(self, "orders", orders)

    @property
    def n_channels(self) -> int:
        return len(self.orders[0])

    @property
    def m_orders(self) -> int:
        return len(self.orders)


class SwitchMap(NamedTuple):
    """The switch map that ``_switch_map`` built, with the order set and basis it is for.

    ``blocks`` and ``index`` are read-only arrays; ``orders`` and ``basis``
    are the key that ``apply_switch`` and ``holevo_oracle`` check a given
    map against.  An equal order set matches, and a basis only itself.
    """

    blocks: np.ndarray
    index: np.ndarray
    orders: OrderSet
    basis: UnitaryBasis


class ControlAmplitudes(Record):
    """Nonnegative control amplitudes c_i with sum of squares equal to 1.

    ``values`` is stored as a tuple, whatever sequence it was given as.  A
    ``values`` that is not a sequence of real numbers raises InvalidStateError.
    """

    __slots__ = ("values",)

    values: tuple[float, ...]

    def __init__(self, values: tuple[float, ...]) -> None:
        try:
            values = tuple(values)
            finite = all(math.isfinite(v) for v in values)
        except TypeError:
            raise InvalidStateError(f"amplitudes must be real numbers, got {values!r}") from None
        if not values:
            raise InvalidStateError("empty amplitude vector")
        # NaN passes both comparisons below, so it is rejected first.
        if not finite:
            raise InvalidStateError("amplitudes must be finite")
        if min(values) < 0.0:
            raise InvalidStateError("amplitudes must be nonnegative")
        total = sum(v * v for v in values)
        if abs(total - 1.0) > 1e-12:
            raise InvalidStateError(f"squared amplitudes sum to {total!r}, expected 1")
        object.__setattr__(self, "values", values)

    @classmethod
    def uniform(cls, m: int) -> "ControlAmplitudes":
        m = _integer("number of orders", m, 1)
        return cls(values=tuple([1.0 / math.sqrt(m)] * m))

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self.values, dtype=float)


class SwitchOutput(Record):
    """Joint control (x) target output state with its block decomposition.

    ``state`` is taken as an array (a nested list is converted), validated
    and made read-only, and no field can be reassigned.  Equality and
    hashing are by identity, as an array has no single truth value.  M or d
    below 1, or not an integer, raises DomainError.
    """

    __slots__ = ("m_orders", "dim", "state")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    m_orders: int
    dim: int
    state: np.ndarray

    def __init__(self, m_orders: int, dim: int, state: np.ndarray) -> None:
        import numpy as np
        m_orders, dim = _integer("number of orders", m_orders, 1), _integer("dimension", dim, 1)
        state = np.asarray(state)
        expected = m_orders * dim
        if state.shape != (expected, expected):
            raise DimensionMismatchError(
                f"state has shape {state.shape}, expected ({expected}, {expected})"
            )
        validate_density_matrix(state)
        state.setflags(write=False)
        object.__setattr__(self, "m_orders", m_orders)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "state", state)

    def block(self, i: int, j: int) -> np.ndarray:
        """Read-only view of the (i, j) control sector, a dim x dim matrix."""
        i, j = (_integer("block index", k, 0, self.m_orders - 1) for k in (i, j))
        d = self.dim
        return self.state[i * d : (i + 1) * d, j * d : (j + 1) * d]


def order_count(n_channels: int, mode: str) -> int:
    """M of the ``cyclic`` or ``all`` order set over N channels, without building it.

    Any other ``mode`` raises DomainError.
    """
    n_channels = _integer("channel count", n_channels, 2)
    if mode not in ("cyclic", "all"):
        raise DomainError(f"order mode must be 'cyclic' or 'all', got {mode!r}")
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
    n = order_count(n_channels, "cyclic")
    return OrderSet(orders=tuple(tuple((shift + i) % n for i in range(n)) for shift in range(n)))


def all_orders(n_channels: int) -> OrderSet:
    """All N! permutations in lexicographic order."""
    order_count(n_channels, "all")
    return OrderSet(orders=tuple(itertools.permutations(range(operator.index(n_channels)))))


def cyclically_related(a: Permutation, b: Permutation) -> bool:
    """True when one order is a cyclic shift of the other.

    An ``a`` or ``b`` that is not a sequence raises DomainError.
    """
    try:
        a, b = tuple(a), tuple(b)
    except TypeError:
        raise DomainError(f"{a!r} and {b!r} must be sequences") from None
    n = len(a)
    if len(b) != n:
        return False
    return any(tuple(a[(i + k) % n] for i in range(n)) == b for k in range(n))


def check_size_guard(
    n_channels: int, m_orders: int, dim: int, n_samples: int = ORACLE_SAMPLES
) -> int:
    """Reject brute-force requests whose arrays exceed the byte budget.

    The count is the largest of these stages, an exact integer returned when
    it fits.  K = 16 P d^4 + 8 (M d)^2 bytes is the switch map that a case
    holds: P complex d^2 x d^2 blocks, P <= min(M (M - 1) + 1, N!), and an
    (M d)^2 integer index.

    * The completeness check's Kraus family: d^(2N) order products of M d^2
      complex entries, stored order-major so the check copies no block,
      and the product chain of d^(2N) d^2 entries that fills them,
      16 d^(2N) d^2 (M + 1) bytes.  ``verify`` builds the first order's
      family alone, one slab and the chain, after it has dropped its map,
      so for it this term counts (M + 1)/2 times the products it holds.
    * The switch map's contraction: its chain state, the state's copy
      sorted by the factor each row meets, and their product,
      48 P d^(N+3) bytes.
    * The oracle, for n = max(n_samples, d) pure inputs, holds K and 2^14
      bytes of generator state and array headers, and in turn: the draws
      of ``_haar_states`` with the norm's temporaries, 48 d n bytes; the
      n pure vectors, 16 d n bytes, beside the spectra, S = 8 (n + 1) M d
      bytes, one output state scaled by one scalar weight and
      ``hermitian_spectrum``'s working copy, contiguous conjugate copy and
      real magnitudes, 56 (M d)^2 at every size, as no pass reads through
      a transposed view or holds a ufunc buffer; and S beside the entropy
      pass's two (n + 1, M d) float arrays and its mask, 25 (n + 1) M d in
      all.

    ``verify``'s block check (``cli._block_residual``) holds about
    58 (M d)^2 bytes beside K at M d = 240, and up to 73 at M d = 48, and
    is not counted: M <= N! keeps it below the family's term on every case
    the budget admits.

    The domain is integers with N >= 2, M >= 1, d >= 2 and a sample count
    in [1, MAX_ORACLE_SAMPLES], the bound ``holevo_oracle`` sets: a value
    that ``operator.index`` refuses, and anything outside the domain, raises
    DomainError.  Within it, an N with 2N past the budget's bit length is
    refused first, as its 2^(2N) products alone pass the budget, so d^(2N)
    is never built as a huge integer and N <= 14 past the first refusal.
    """
    n_channels = _integer("channel count", n_channels, 2)
    m, dim = _integer("number of orders", m_orders, 1), _integer("dimension", dim, 2)
    n = max(_integer("sample count", n_samples, 1, MAX_ORACLE_SAMPLES), dim)
    if 2 * n_channels > BYTE_BUDGET.bit_length():
        raise SizeGuardError(
            f"N={n_channels}, d={dim} needs over 2^{2 * n_channels} bytes of order "
            f"products (budget {BYTE_BUDGET:.2e})"
        )
    p = min(m * (m - 1) + 1, math.factorial(n_channels))
    oracle = 16 * p * dim**4 + 8 * (m * dim) ** 2 + 2**14
    size = max(
        16 * dim ** (2 * n_channels) * dim**2 * (m + 1),
        48 * p * dim ** (n_channels + 3),
        oracle + 48 * dim * n,
        oracle + 16 * dim * n + 8 * (n + 1) * m * dim + 56 * (m * dim) ** 2,
        oracle + 25 * (n + 1) * m * dim,
    )
    if size > BYTE_BUDGET:
        # Past the float range the count is given as a power of two.
        text = f"{size:.2e}" if size.bit_length() < 1024 else f"2^{size.bit_length()}"
        raise SizeGuardError(
            f"N={n_channels}, d={dim}, M={m} needs ~{text} bytes of order "
            f"products, switch map and oracle states (budget {BYTE_BUDGET:.2e})"
        )
    return size


def build_switch_kraus(orders: OrderSet, basis: UnitaryBasis) -> np.ndarray:
    """The d^(2N) switch Kraus operators as their control blocks, shape (d^(2N), M, d, d).

    Operator t is block-diagonal over the control; its block l is the basis
    unitaries for tuple t composed in the l-th causal order, over d^N.
    Tuples run row-major over the channels, the order ``itertools.product``
    lists them.  The chain of products U_t0 U_t1 ... U_t(N-1) grows by one
    factor per ``np.matmul`` of the whole chain, as one (rows, d) matrix,
    with the stack of d^2 basis unitaries: d^2 tall products, each writing
    one contiguous slab, instead of one d x d product per tuple.  The new
    factor's index lands in front, so the axes come out as t_(N-1), ...,
    t_1, t_0, a, c with every d x d block contiguous.  An order puts
    channel ``order[k]`` in factor k, so its blocks are the chain
    transposed into channel order.

    The family is stored order-major, as (M, d^(2N), d, d): each order's
    slab is written by one copy of the transposed chain into contiguous
    memory, and ``check_completeness`` reads each slab in place.  The
    result is the writable (d^(2N), M, d, d) transposed view of that array.
    An ``orders`` that is not an ``OrderSet``, or a ``basis`` that is not a
    ``UnitaryBasis``, raises DomainError.
    """
    import numpy as np
    _records(orders, basis)
    n, m, d = orders.n_channels, orders.m_orders, basis.dim
    check_size_guard(n, m, d)
    chain = basis.ops
    for _ in range(n - 1):
        chain = np.matmul(chain.reshape(-1, d), basis.ops)
    # A fresh product (N >= 2), scaled in place once, before its M copies.
    chain /= float(d**n)
    # Factor k's index t_k sits at axis N - 1 - k.
    chain = chain.reshape((d * d,) * n + (d, d))
    slabs = np.empty((m,) + chain.shape, dtype=chain.dtype)
    for slab, order in zip(slabs, orders.orders):
        slab[...] = chain.transpose(*(n - 1 - np.argsort(order)), n, n + 1)
    return slabs.reshape(m, -1, d, d).transpose(1, 0, 2, 3)


def _records(orders: OrderSet, basis: UnitaryBasis) -> None:
    """DomainError unless ``orders`` is an ``OrderSet`` and ``basis`` a ``UnitaryBasis``."""
    _instance("orders", orders, OrderSet)
    _instance("basis", basis, UnitaryBasis)


def _switch_map(orders: OrderSet, basis: UnitaryBasis) -> SwitchMap:
    """Superoperator of the switch before amplitude scaling, as a ``SwitchMap``.

    Row (i, a, j, c) and column (b, e) of S hold sum_t K_ti[a, b]
    conj(K_tj[c, e]) over the Kraus blocks K_ti, so S sends rho to the
    (M*d, M*d) output whose (i, j) block is sum_t K_ti rho K_tj^dagger.  S is
    held as (P, d^2, d^2) ``blocks``, one per distinct relative permutation
    pi, with rows (a, c) and columns (b, e), and an (M, d, M, d) integer
    ``index`` into the raveled (P, d, d) images ``blocks @ rho.ravel()``:
    output entry (i, a, j, c) is image entry (pi, a, c) of the pair's pi.

    Channel k's index t_k appears once in K_ti and once in conj(K_tj), so
    the tuple sum is a contraction of one twirl tensor per channel,
    W[a, b, c, e] = (1/d^2) sum_u U_u[a, b] conj(U_u[c, e]), taken from the
    basis operators as they are.  The channel at position p of order i is
    at position q = pi(p) of order j and joins (x_p, x_p+1) of the x chain
    to (y_q, y_q+1) of the y chain, with x_0 = a, x_N = b, y_0 = c and
    y_N = e (the graphical calculus of Wood, Biamonte and Cory, Quantum
    Inf. Comput. 15, 759 (2015)).  Every channel has the same W, so a block
    depends only on its relative permutation pi, and each distinct pi is
    contracted once: a state over (pi, y_0..y_N, x_0, x_p) takes factor p
    of every pi in one ``np.matmul`` of d^2 tall products, one per value of
    the factor, and the inner y are summed at the end.

    Each call runs the byte guard and builds anew; the two arrays are
    returned read-only, so callers may share them, and nothing else holds
    them.  The map carries ``orders`` and ``basis`` as given.
    """
    import numpy as np
    n, m, d = orders.n_channels, orders.m_orders, basis.dim
    check_size_guard(n, m, d)
    perms, which = _relative_orders(orders)
    # twirl[c, e, a, b] = W[a, b, c, e]: the Gram of the flattened basis.
    twirl = (gram(basis.ops.reshape(d * d, d * d)) / (d * d)).reshape(d, d, d, d)
    blocks = _contract(twirl, perms).transpose(0, 3, 1, 4, 2).reshape(-1, d * d, d * d)
    index = (which[:, None, :, None] * d + np.arange(d)[:, None, None]) * d + np.arange(d)
    blocks.setflags(write=False)
    index.setflags(write=False)
    return SwitchMap(blocks, index, orders, basis)


def _map_for(orders: OrderSet, basis: UnitaryBasis, switch_map: SwitchMap | None) -> SwitchMap:
    """``switch_map`` if it was built for ``orders`` and ``basis``, a new build if it is None.

    A map built for another order set or basis raises DomainError.
    """
    if switch_map is None:
        return _switch_map(orders, basis)
    if (switch_map.orders, switch_map.basis) != (orders, basis):
        raise DomainError("the switch map was built for another order set or basis")
    return switch_map


def _relative_orders(orders: OrderSet) -> tuple[np.ndarray, np.ndarray]:
    """The distinct relative permutations of the order pairs, and which is whose.

    Row pi of the (P, N) first array maps each position p of an order i to
    the position pi(p) of the same channel in an order j.  Entry (i, j) of
    the (M, M) second array is the row of that pair.  Each row is keyed by
    its digits in base N, which fit an int64 for every N the byte guard
    admits (N <= 14); past N = 15 ``np.ravel_multi_index`` raises rather
    than wraps.  Its one caller, ``_switch_map``, runs the guard first.
    """
    import numpy as np
    sigma = np.array(orders.orders)
    m, n = sigma.shape
    inverse = np.argsort(sigma, axis=1)
    relative = inverse[np.arange(m)[None, :, None], sigma[:, None, :]].reshape(m * m, n)
    keys = np.ravel_multi_index(relative.T, (n,) * n)
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    return relative[first], which.reshape(m, m)


def cyclic_pairs(orders: OrderSet) -> np.ndarray:
    """(M, M) mask of the order pairs in which one order is a cyclic shift of the other.

    Each order is rotated to start at channel 0, and the distinct rotations
    are numbered in one pass; two orders are cyclic shifts of each other
    exactly when their rotations match.  It holds one rotation per order, so
    it takes any N and needs no byte guard.
    """
    import numpy as np
    seen: dict[Permutation, int] = {}
    ids = [seen.setdefault(o[o.index(0):] + o[:o.index(0)], len(seen)) for o in orders.orders]
    return np.equal.outer(ids, ids)


def _contract(twirl: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The N-twirl network of each relative permutation, shape (P, d, d, d, d).

    Entry [pi, c, e, a, b] is the network's value with x_0 = a, x_N = b,
    y_0 = c and y_N = e.  The chain's state is P d^(N+1) rows (pi, y_0..y_N),
    each a d x d matrix over (x_0, x_p).  Factor p meets row (pi, y) as
    ``twirl[y_q, y_q+1]``, q = pi(p), one of d^2 matrices keyed by
    y_q d + y_q+1; y runs over every configuration, so each key is met by
    exactly P d^(N-1) rows.  Each step sorts the rows by that key into a
    copy, takes all d^2 tall products of the copy with the factors in one
    ``np.matmul``, and scatters them back into the state.  The state, its
    sorted copy and their product are P d^(N+3) entries each.  Keys are
    below d^2 <= 256 under the byte guard, so they sort as int16, by radix.
    """
    import numpy as np
    d, n = len(twirl), perms.shape[1]
    y = np.indices((d,) * (n + 1), dtype=np.int16).reshape(n + 1, -1)
    state = twirl[y[perms[:, 0]], y[perms[:, 0] + 1]].reshape(-1, d, d)
    factors = twirl.reshape(d * d, d, d)
    for q in perms.T[1:]:
        order = np.argsort(y[q] * d + y[q + 1], axis=None, kind="stable")
        state[order] = np.matmul(state[order].reshape(d * d, -1, d), factors).reshape(-1, d, d)
    return state.reshape(len(perms), d, -1, d, d, d).sum(axis=2)


def _output_state(
    switch_map: SwitchMap, weights: float | np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Joint output for one target state, shape (M*d, M*d).

    ``weights`` is the (M, 1, M, 1) array of amplitude products c_i c_j,
    or one scalar when every product is the same, as for uniform
    amplitudes: a scalar scales the state with no broadcast buffer.  M is
    read from the map.
    """
    m, d = len(switch_map.index), len(rho)
    raw = (switch_map.blocks @ rho.ravel()).take(switch_map.index)
    raw *= weights
    return raw.reshape(m * d, m * d)


def apply_switch(
    orders: OrderSet,
    basis: UnitaryBasis,
    amplitudes: ControlAmplitudes,
    rho: np.ndarray,
    *,
    switch_map: SwitchMap | None = None,
) -> SwitchOutput:
    """Exact Kraus-sum output of the switch on (sum_i c_i |i>) control.

    The input target state ``rho`` must match the basis dimension, or
    DimensionMismatchError is raised.  The result satisfies the
    density-matrix invariants by construction and is validated before being
    returned.  An ``orders``, ``basis`` or ``amplitudes`` that is not its
    record raises DomainError.  ``switch_map`` is
    ``_switch_map(orders, basis)``, built here when not given; a map built
    for another order set or basis raises DomainError.
    """
    import numpy as np
    _records(orders, basis)
    d = basis.dim
    rho = _square_state(rho, d)
    _instance("amplitudes", amplitudes, ControlAmplitudes)
    if len(amplitudes) != orders.m_orders:
        raise DimensionMismatchError(
            f"{len(amplitudes)} amplitudes for {orders.m_orders} orders"
        )
    switch_map = _map_for(orders, basis, switch_map)
    c = amplitudes.as_array()
    state = _output_state(switch_map, np.outer(c, c)[:, None, :, None], rho)
    return SwitchOutput(m_orders=orders.m_orders, dim=d, state=state)


class NormalSource:
    """Seeded standard normal draws from the stdlib Mersenne Twister.

    ``standard_normal(size)`` takes an int or a shape and fills a float64
    array of it, in C order, from ``random.Random(seed).gauss(0.0, 1.0)``.
    Importing ``random`` adds a few small modules, where the first use of
    ``numpy.random`` loads ``secrets``, ``hashlib`` and a dozen extension
    modules.  The same seed gives the same draws, and successive calls
    continue one stream.  A negative seed raises DomainError:
    ``random.Random`` seeds from the absolute value, so -s would repeat the
    draws of s.  A ``size`` entry that ``operator.index`` refuses, or a
    negative one, raises DomainError before any draw, where numpy's
    ``Generator`` raises TypeError or ValueError.
    """

    def __init__(self, seed: int) -> None:
        seed = _integer("seed", seed, 0)
        self._gauss = random.Random(seed).gauss

    def standard_normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        import numpy as np
        # dtype=object keeps each entry's own type; a numeric array would
        # make (2, 2.0) two floats and refuse the 2.
        dims = [_integer("size entry", n, 0) for n in np.atleast_1d(np.array(size, dtype=object))]
        count = math.prod(dims)
        draws = itertools.starmap(self._gauss, itertools.repeat((0.0, 1.0), count))
        return np.fromiter(draws, dtype=float, count=count).reshape(dims)


def _normals(rng: NormalSource | np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """``rng.standard_normal(shape)``; an ``rng`` without that method raises DomainError."""
    draw = getattr(rng, "standard_normal", None)
    if not callable(draw):
        raise DomainError(f"rng must have a standard_normal(size) method, got {rng!r}")
    return draw(shape)


def _haar_states(count: int, dim: int, rng: NormalSource | np.random.Generator) -> np.ndarray:
    """``count`` Haar-random pure state vectors, the rows of a (count, dim) array.

    Each row is a complex Gaussian vector over its norm, its real parts
    drawn before its imaginary parts, so a batch is ``count`` single draws,
    to the last bit.  The draws are copied once into complex entries, each
    real part beside its imaginary part, and dropped before the norm is
    taken, so the batch never holds more than the vectors and the norm's
    two temporaries, 48 bytes per entry, as ``check_size_guard`` counts
    it.  ``rng`` is any object with ``standard_normal(size)``.
    """
    import numpy as np
    v = _normals(rng, (count, 2, dim)).transpose(0, 2, 1).copy().view(complex)[..., 0]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def haar_random_state(dim: int, rng: NormalSource | np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector from complex Gaussian entries, as ``_haar_states`` draws it.

    ``rng`` is any object with ``standard_normal(size)``.  A ``dim`` that is
    not an integer of at least 1, or an ``rng`` without that method, raises
    DomainError.
    """
    return _haar_states(1, _integer("dimension", dim, 1), rng)[0]


def random_density_matrix(dim: int, rng: NormalSource | np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix A A^dagger / Tr(A A^dagger).

    ``rng`` is any object with ``standard_normal(size)``.  A ``dim`` that is
    not an integer of at least 1, or an ``rng`` without that method, raises
    DomainError.
    """
    import numpy as np
    dim = _integer("dimension", dim, 1)
    a = _normals(rng, (dim, dim)) + 1j * _normals(rng, (dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def holevo_oracle(
    orders: OrderSet,
    basis: UnitaryBasis,
    n_samples: int = ORACLE_SAMPLES,
    seed: int = 42,
    *,
    switch_map: SwitchMap | None = None,
) -> float:
    """Sampled lower bound on the switch Holevo quantity, in bits.

    Evaluates S(output on the maximally mixed input) minus the smallest
    output entropy over the sample set, using uniform control amplitudes.
    The sample set always contains the d computational basis states, then
    ``n_samples - d`` Haar-random pure states drawn from ``NormalSource(seed)``.
    The switch map reads ``basis`` only through its twirl, the channel's
    Choi matrix, so every Kraus decomposition of the completely depolarizing
    channel (any d^2 operators whose flattened Gram matrix is d I, unitary
    or not) gives the same map.  Every output block is then a multiple of
    rho or of Tr(rho) I for any order set, so every pure input has the same
    output entropy and the value is exact, whatever the sample count and
    seed.  Samples matter only for an ``ops`` array that is not such a
    decomposition, where adding them can only lower the reported minimum.
    An ``orders`` or ``basis`` that is not its record, a negative or
    non-integer seed, or a sample count that is not an integer in
    [1, MAX_ORACLE_SAMPLES], raises DomainError, and a count
    that ``check_size_guard`` refuses SizeGuardError, before any state is
    drawn or any map taken.  ``switch_map`` is as for ``apply_switch``.
    The Haar vectors come from one ``_haar_states`` batch, the draws that
    successive ``haar_random_state`` calls make.  The amplitudes are
    uniform, so every product c_i c_j is the one float ``c[0] * c[0]``,
    and each output state is scaled by that scalar.  Each input's projector
    is built as its output state is taken, one at a time, mixed input first,
    and each spectrum is written into its row of one stack, from which a
    single ``von_neumann_entropy`` call takes every entropy.
    """
    import numpy as np
    _records(orders, basis)
    rng = NormalSource(seed)
    d, n_samples = basis.dim, _integer("sample count", n_samples, 1, MAX_ORACLE_SAMPLES)
    check_size_guard(orders.n_channels, orders.m_orders, d, n_samples)
    switch_map = _map_for(orders, basis, switch_map)
    c = ControlAmplitudes.uniform(orders.m_orders).as_array()
    weight = c[0] * c[0]

    pure = np.concatenate([np.eye(d, dtype=complex), _haar_states(max(0, n_samples - d), d, rng)])
    inputs = itertools.chain([np.eye(d, dtype=complex) / d], (v[:, None] * v.conj() for v in pure))
    spectra = np.empty((len(pure) + 1, orders.m_orders * d))
    for s, rho in enumerate(inputs):
        spectra[s] = hermitian_spectrum(_output_state(switch_map, weight, rho))
    # The entropy pass holds the spectra alone, as check_size_guard counts it.
    del pure
    entropies = von_neumann_entropy(spectra)
    return float(entropies[0] - entropies[1:].min())
