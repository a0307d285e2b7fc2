"""Equality, hashing and repr for the package's value and result classes.

Every record is an immutable value.  Each class names its fields, in
constructor order, in `_fields` and writes its own `__init__`, which takes
exactly those parameters and puts the fields straight into the instance
`__dict__`; assignment and deletion raise AttributeError.  Two instances
are equal when they have the same class and equal fields, and hash by
those fields; attributes outside `_fields` (lazily kept tables, masks and
point tuples) take no part in equality.  The repr is `Name(field=value,
...)` over `_fields`, so it is a constructor call that rebuilds an equal
value.

Plain classes, so that importing the package generates no code: building
these methods with `exec` at import time made up most of the import's
cost.
"""

from operator import attrgetter


class Record:
    """An immutable, hashable record, compared by its `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls._fields:
            # _key(obj): the tuple of obj's fields, built in C
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
