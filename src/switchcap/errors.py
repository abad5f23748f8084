"""Exception types shared across the package, and the integer check that raises one."""

import operator


class SwitchCapError(Exception):
    """Base class for every error raised by switchcap."""


class NotHermitianError(SwitchCapError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NoConvergenceError(SwitchCapError):
    """The eigensolver failed, or its eigenvalues do not reproduce the trace."""


class InvalidSpectrumError(SwitchCapError, ValueError):
    """Values do not form a valid density-matrix spectrum."""


class InvalidStateError(SwitchCapError, ValueError):
    """A density matrix or amplitude vector violates its invariants."""


class DimensionMismatchError(SwitchCapError, ValueError):
    """Operands have incompatible dimensions."""


class DimensionOutOfRangeError(SwitchCapError, ValueError):
    """Requested dimension is outside the supported range."""


class SizeGuardError(SwitchCapError):
    """A brute-force computation would exceed the byte budget."""


class DomainError(SwitchCapError, ValueError):
    """An argument lies outside the domain that its function accepts."""


def _integer(name: str, value: object) -> int:
    """``value`` as an int, or DomainError if ``operator.index`` refuses it.

    NumPy integers are accepted; a float such as 2.0 is refused, not rounded.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value}") from None
