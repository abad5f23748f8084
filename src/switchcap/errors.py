"""Exception types shared across the package, ``_integer``, which converts
and bounds every integer argument: each count, dimension, block index and
seed, and ``_instance``, which checks the type of a record argument."""

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


def _integer(name: str, value: object, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int within its bounds, or DomainError.

    ``operator.index`` converts it: NumPy integers are accepted, and a float
    such as 2.0 is refused, not rounded.  The int is then checked against
    ``low`` alone, or against [low, high] when ``high`` is given, with the
    messages "{name} must be at least {low}, got {value}" and
    "{name} {value} outside [{low}, {high}]".
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value}") from None
    if high is not None:
        if not low <= value <= high:
            raise DomainError(f"{name} {value} outside [{low}, {high}]")
    elif low is not None and value < low:
        raise DomainError(f"{name} must be at least {low}, got {value}")
    return value


def _instance(name: str, value: object, cls: type) -> None:
    """DomainError naming ``name`` unless ``value`` is a ``cls``.

    Callers check a record argument before they read any of its attributes,
    so ``None`` or a sequence in its place raises DomainError, not
    AttributeError.
    """
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {value!r}")
