"""Equality, hashing, construction and repr for the package's value and
result classes.

Every record is an immutable value.  Each class names its fields, in
constructor order, in `_fields`, the one place they are listed.  The
shared `Record.__init__` binds the positional and then the keyword
arguments to those fields, takes a field given neither way from the
class's `_defaults`, and puts the fields straight into the instance
`__dict__`; too many positional arguments, an unknown field, a field given
twice or a missing field with no default raise TypeError.  A class that
validates or sorts its input, stores derived attributes, or is built once
per enumerated block or decoded word writes its own `__init__` with the
same parameters.  Assignment and deletion raise AttributeError.  Two
instances are equal when they have the same class and equal fields, and
hash by those fields; attributes outside `_fields` (lazily kept tables,
masks and point tuples) take no part in equality.  The repr is
`Name(field=value, ...)` over `_fields`, so it is a constructor call that
rebuilds an equal value.

Plain classes, so that importing the package generates no code: building
these methods with `exec` at import time made up most of the import's
cost.
"""

from operator import attrgetter


class Record:
    """An immutable, hashable record, compared by its `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # the value of each field that may be left out of the constructor call
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if cls._fields:
            # _key(obj): the tuple of obj's fields, built in C
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{self._name()} takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{self._name()} got an unknown field {field!r}")
            if field in values:
                raise TypeError(f"{self._name()} got field {field!r} twice")
            values[field] = value
        if len(values) < len(fields):
            defaults = self._defaults
            missing = [f for f in fields if f not in values and f not in defaults]
            if missing:
                raise TypeError(f"{self._name()} missing field(s) {', '.join(map(repr, missing))}")
            values = {f: values[f] if f in values else defaults[f] for f in fields}
        self.__dict__.update(values)

    def _name(self) -> str:
        return f"{self.__class__.__qualname__}()"

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
