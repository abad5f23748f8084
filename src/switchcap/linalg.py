"""Dense complex linear algebra sized for small quantum states.

Matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries in
row-major order.  Density matrices are square, Hermitian, positive
semidefinite and unit trace; spectra are 1-D ``float64`` arrays sorted in
descending order, computed by LAPACK through ``numpy.linalg.eigvalsh``, and
the spectrum checks and the entropy also take a 2-D stack of them, one per
row.
Inputs with a NaN or infinite entry are rejected, never passed on.
Everything here is a pure function: inputs are never mutated.  NumPy is
imported inside each function, not at module level, so a process that only
evaluates the closed forms never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidSpectrumError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    _integer,
)

if TYPE_CHECKING:
    import numpy as np

# Tolerances for the density-matrix invariants.
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_PSD_TOL = 1e-10

# Largest |h - h^dagger| entry hermitian_spectrum accepts before symmetrizing.
SPECTRUM_HERMITICITY_TOL = 1e-10


def hermitian_spectrum(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order.

    The input is symmetrized, ``(h + h^dagger) * 0.5``, to drop its
    sub-tolerance asymmetry, then handed to LAPACK (``numpy.linalg.eigvalsh``).
    Beside the input it holds a working copy, one contiguous conjugate
    copy of its transpose and the asymmetry's real magnitudes, 2.5 copies:
    the sum is formed in the working copy, and the asymmetry
    ``h - h^dagger`` in the conjugate copy, as the sum less twice it.  The
    transpose is copied once and conjugated in place, so no pass reads
    through a transposed view and no ufunc holds an iteration buffer.

    Parameters
    ----------
    h : ndarray
        Square matrix with finite entries, Hermitian within
        ``SPECTRUM_HERMITICITY_TOL``.

    Raises
    ------
    NotHermitianError
        If ``h`` is not square, has a NaN or infinite entry, or is not
        Hermitian within tolerance.
    NoConvergenceError
        If LAPACK reports a failure, or the eigenvalue sum fails to
        reproduce the trace.
    """
    import numpy as np
    a = np.array(h, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotHermitianError("matrix has NaN or infinite entries")
    trace = float(np.trace(a).real)
    adjoint = a.T.copy()
    np.conjugate(adjoint, out=adjoint)
    a += adjoint
    adjoint *= -2.0
    adjoint += a
    asym = float(np.abs(adjoint).max()) if a.size else 0.0
    del adjoint
    # NaN from an overflowing sum fails this test too.
    if not asym <= SPECTRUM_HERMITICITY_TOL:
        raise NotHermitianError(
            f"matrix deviates from Hermitian symmetry by {asym:.3e} "
            f"(tolerance {SPECTRUM_HERMITICITY_TOL:.1e})"
        )
    a *= 0.5
    try:
        values = np.linalg.eigvalsh(a)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
    drift = abs(float(values.sum()) - trace)
    if drift > max(1e-10, 1e-12 * max(1.0, abs(trace))):
        raise NoConvergenceError(
            f"eigenvalue sum drifted from the trace by {drift:.3e}"
        )
    return values


def gram(x: np.ndarray) -> np.ndarray:
    """The Gram matrix ``x^dagger x`` of a (K, n) complex array, shape (n, n).

    The product runs on the float64 view of ``x`` (of its C-contiguous copy
    when ``x`` is not one), so ``x`` is never conjugated into a second
    array: column 2a of the view is Re x[:, a] and column 2a+1 is Im, and
    one real BLAS product holds every sum.  Beyond ``x`` it holds that
    (2n, 2n) real product and the complex result, 48 n^2 bytes.
    """
    import numpy as np
    x = np.ascontiguousarray(x, dtype=complex)
    n = x.shape[1]
    r = x.view(np.float64)
    # With g = r^T r, entry (a, b) is g[2a, 2b] + g[2a+1, 2b+1]
    # + i (g[2a, 2b+1] - g[2a+1, 2b]).  Each part is a reduction over a
    # length-2 axis of views of g: an elementwise sum of the strided
    # quarters would allocate NumPy's iteration buffers, ~128 KiB.
    pairs = (r.T @ r).reshape(n, 2, n, 2)
    out = np.empty((n, n), dtype=complex)
    np.add.reduce(pairs.diagonal(axis1=1, axis2=3), axis=-1, out=out.real)
    np.subtract.reduce(pairs[..., ::-1].diagonal(axis1=1, axis2=3), axis=-1, out=out.imag)
    return out


def validate_spectrum(values: np.ndarray) -> None:
    """Raise unless ``values`` is a density-matrix spectrum, or a stack of them.

    ``values`` is one spectrum, shape (k,), or a stack, shape (r, k), with
    one spectrum per row; a spectrum is a one-row stack.  Each row must be
    nonempty, every value finite and in ``[-1e-10, 1 + 1e-10]``, and each
    row's total weight 1 within ``1e-8``.  One bad row fails the stack.
    """
    import numpy as np
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2):
        raise InvalidSpectrumError(
            f"expected a spectrum (k,) or a stack (r, k), got shape {values.shape}"
        )
    if values.size == 0:
        raise InvalidSpectrumError("empty spectrum")
    if not np.isfinite(values).all():
        raise InvalidSpectrumError("spectrum has NaN or infinite values")
    if float(values.min()) < -DENSITY_PSD_TOL or float(values.max()) > 1.0 + DENSITY_PSD_TOL:
        raise InvalidSpectrumError(
            f"spectrum values outside [0, 1]: min={values.min():.3e}, max={values.max():.3e}"
        )
    totals = np.atleast_1d(values.sum(axis=-1))
    worst = float(totals[np.abs(totals - 1.0).argmax()])
    if abs(worst - 1.0) > 1e-8:
        raise InvalidSpectrumError(f"spectrum sums to {worst!r}, expected 1")


def von_neumann_entropy(spectrum: np.ndarray) -> float | np.ndarray:
    """Entropy in bits, ``-sum(p * log2(p))`` with ``0 * log 0 == 0``.

    ``spectrum`` is one spectrum, shape (k,), whose entropy is returned as a
    float, or a stack, shape (r, k), whose r row entropies are returned as
    an array; a spectrum is taken as a one-row stack, so row i of a stack
    gets the same bits as that row alone.  The input must pass
    ``validate_spectrum``.  Small negative values from numerical jitter are
    clamped to zero.  Beside the input it holds two (r, k) float arrays, the
    clamped values and their terms, and a transient (r, k) mask.
    """
    import numpy as np
    values = np.asarray(spectrum, dtype=float)
    validate_spectrum(values)
    positive = np.clip(values.reshape(-1, values.shape[-1]), 0.0, None)
    terms = np.zeros_like(positive)
    np.log2(positive, out=terms, where=positive > 0.0)
    terms *= positive
    del positive
    entropies = np.maximum(-terms.sum(axis=1), 0.0)
    return float(entropies[0]) if values.ndim == 1 else entropies


def _square_state(rho: np.ndarray, dim: int) -> np.ndarray:
    """``rho`` as a complex (dim, dim) array, or DimensionMismatchError.

    The one shape check of every function that takes a state of a known
    dimension; its message is "state has shape {shape}, expected (d, d)".
    """
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise DimensionMismatchError(f"state has shape {rho.shape}, expected ({dim}, {dim})")
    return rho


def partial_trace(rho: np.ndarray, dim_a: int, dim_b: int, keep: str) -> np.ndarray:
    """Reduced state of one factor of a bipartite state.

    ``rho`` acts on a tensor product of an ``dim_a``-level system A and a
    ``dim_b``-level system B, indexed row-major as ``i * dim_b + j``.
    ``keep`` selects the surviving subsystem, ``"A"`` or ``"B"``.  The trace
    of the input is preserved exactly up to floating-point summation.  A
    dimension that is not an integer, or is below 1, raises DomainError,
    and a ``rho`` of any shape but (dim_a dim_b, dim_a dim_b)
    DimensionMismatchError.
    """
    import numpy as np
    dim_a, dim_b = _integer("dimension", dim_a, 1), _integer("dimension", dim_b, 1)
    r = _square_state(rho, dim_a * dim_b).reshape(dim_a, dim_b, dim_a, dim_b)
    if keep == "A":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(r, axis1=0, axis2=2)
    raise DomainError(f"keep must be 'A' or 'B', got {keep!r}")


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise unless ``rho`` is Hermitian, unit trace and PSD within tolerance.

    Tolerances: hermiticity 1e-12 entrywise, trace 1e-12, smallest eigenvalue
    at least -1e-10.  An empty matrix, or a NaN or infinite entry, is rejected.
    The asymmetry is taken in one contiguous conjugate copy of the
    transpose, conjugated in place: no pass reads through a transposed view
    and no ufunc holds an iteration buffer.
    """
    import numpy as np
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size == 0:
        raise InvalidStateError(f"expected a nonempty square matrix, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("state has NaN or infinite entries")
    adjoint = rho.T.copy()
    np.conjugate(adjoint, out=adjoint)
    np.subtract(rho, adjoint, out=adjoint)
    asym = float(np.abs(adjoint).max())
    del adjoint
    if asym > DENSITY_HERMITICITY_TOL:
        raise InvalidStateError(f"not Hermitian: asymmetry {asym:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise InvalidStateError(f"trace is {tr!r}, expected 1")
    smallest = float(hermitian_spectrum(rho)[-1])
    if smallest < -DENSITY_PSD_TOL:
        raise InvalidStateError(f"negative eigenvalue {smallest:.3e}")
