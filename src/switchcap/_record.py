"""The base of the package's small immutable record classes.

``OrderSet``, ``ControlAmplitudes`` and ``SwitchOutput`` in ``switch`` and
``UnitaryBasis`` in ``channels`` are ``__slots__`` classes on ``Record``.
Their fields are their slots, in order, and each constructor takes them
by keyword or position and sets them with ``object.__setattr__``.  The
base is plain Python rather than ``dataclasses``, which loads ``inspect``,
``ast`` and ``tokenize`` and compiles each decorated class's methods when
the package is imported, a cost every short CLI process would pay.
"""


class Record:
    """Fields in ``__slots__``, compared and hashed by value, shown by name, never reassigned.

    Assigning or deleting any attribute raises AttributeError.  A record
    whose fields hold arrays, which have no single truth value, compares
    and hashes by identity instead, by setting ``__eq__`` and ``__hash__``
    to ``object``'s.  Pickling and copying call the constructor again with
    the fields, so the copy is validated as the original was.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()
