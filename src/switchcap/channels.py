"""Completely depolarizing channels built from an orthogonal operator basis.

The channel is realized by Kraus summation over the d^2 Heisenberg-Weyl
(clock-and-shift) operators.  Any d^2 operators whose flattened Gram matrix
is d I would do, unitary or not: the Kraus operators ops/d of every such set
decompose the same channel, and the switch depends on the channel alone.
The Weyl operators are deterministic and dimension-generic.

``UnitaryBasis`` is a slotted record class (``switchcap._record``): its
fields are read-only, and it compares and hashes by identity.  No module
of the package imports ``dataclasses``.

NumPy is imported inside each function that builds an array, not at
module level, so importing the package for the closed forms loads none.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._record import Record
from .errors import (
    DimensionMismatchError,
    DimensionOutOfRangeError,
    DomainError,
    _instance,
    _integer,
)
from .linalg import _square_state, gram

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import ArrayLike

MIN_DIM = 2
MAX_DIM = 16


class UnitaryBasis(Record):
    """d^2 operators on a d-level system, orthogonal under the trace inner product.

    ``ops`` has shape (d^2, d, d).  Orthogonality means
    Tr(U_i^dagger U_j) = d * delta_ij; then the Kraus operators ops/d
    decompose the completely depolarizing channel.  Nothing checks either
    property, and nothing needs the operators to be unitary: only the shape
    is validated.  Equality and hashing are by
    identity, as an array has no single truth value.  The basis holds its
    own read-only copy of ``ops``, made from any array-like, so no alias of
    the caller's array can change it, and its fields cannot be reassigned.
    A ``dim`` that ``operator.index`` refuses, or below 1, raises DomainError.
    """

    __slots__ = ("dim", "ops")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    dim: int
    ops: np.ndarray

    def __init__(self, dim: int, ops: np.ndarray) -> None:
        import numpy as np
        dim, ops = _integer("dimension", dim, 1), np.array(ops)
        if ops.shape != (dim * dim, dim, dim):
            raise DimensionMismatchError(
                f"expected {(dim * dim, dim, dim)} operators, got shape {ops.shape}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ops", ops)


def weyl_basis(dim: int) -> UnitaryBasis:
    """The d^2 clock-and-shift operators X^a Z^b, a, b in {0..d-1}.

    X cycles the computational basis (X|k> = |k+1 mod d>) and Z applies the
    phase ladder (Z|k> = w^k |k> with w = exp(2 pi i / d)).  The element at
    (a=0, b=0) is the identity.
    """
    import numpy as np
    dim = _integer("dimension", dim)
    if not MIN_DIM <= dim <= MAX_DIM:
        raise DimensionOutOfRangeError(
            f"dimension {dim} outside supported range [{MIN_DIM}, {MAX_DIM}]"
        )
    omega = np.exp(2j * np.pi / dim)
    k = np.arange(dim)
    a, b = k[:, None, None], k[None, :, None]
    ops = np.zeros((dim,) * 4, dtype=complex)
    # (X^a Z^b)|k> = w^(b k) |k + a mod d>
    ops[a, b, (k + a) % dim, k] = omega ** (b * k)
    return UnitaryBasis(dim=dim, ops=ops.reshape(dim * dim, dim, dim))


def depolarize(basis: UnitaryBasis, rho: np.ndarray) -> np.ndarray:
    """Apply the completely depolarizing channel by explicit Kraus summation.

    Returns (1/d^2) * sum_i U_i rho U_i^dagger, which equals
    Tr(rho) * I / d for any input.  The sum is evaluated literally so the
    result can serve as a brute-force reference for the closed form.  A
    ``basis`` that is not a ``UnitaryBasis`` raises DomainError, and a
    ``rho`` that is not d x d DimensionMismatchError.
    """
    import numpy as np
    _instance("basis", basis, UnitaryBasis)
    d = basis.dim
    rho = _square_state(rho, d)
    return np.einsum("kij,jl,kml->im", basis.ops, rho, basis.ops.conj()) / (d * d)


def check_completeness(kraus: ArrayLike) -> float:
    """Max-norm residual of the trace-preservation condition.

    ``kraus`` converts to a complex (K, B, n, n) stack of K block-diagonal
    operators held as their B blocks, or to a (K, n, n) stack (B = 1), such
    as a list of n x n matrices.  Returns max |sum_i K_ib^dagger K_ib - I|
    over entries and blocks b; below ~1e-12 certifies a valid channel.
    """
    import numpy as np
    try:
        ops = np.asarray(kraus, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatchError(f"Kraus operators must share a square shape: {exc}") from exc
    if ops.size == 0:
        raise DomainError("empty Kraus list")
    ops = ops[:, None] if ops.ndim == 3 else ops
    if ops.ndim != 4 or ops.shape[2] != ops.shape[3]:
        raise DimensionMismatchError(
            f"expected a (K, n, n) or (K, B, n, n) stack of Kraus operators, got shape {ops.shape}"
        )
    dim = ops.shape[2]
    # Block b's sum_i K_ib^dagger K_ib is the Gram of the (K n, n) array of
    # its operators' rows.  That array is a view when the block is
    # contiguous, as in a C-order (K, n, n) stack or in the order-major
    # family of ``build_switch_kraus``, whose (K, B, n, n) view holds each
    # order's blocks in one slab.  Any other block, such as one of a C-order
    # (K, B, n, n) stack, is copied and released before the next is copied;
    # the stack itself is never conjugated.
    return max(
        float(np.abs(gram(block.reshape(-1, dim)) - np.eye(dim)).max())
        for block in ops.transpose(1, 0, 2, 3)
    )
