"""Immutable value types, written out by hand.

`Record` gives every value type in qerase the same methods, defined once:
no code is generated per class at import. A subclass lists its fields in
`__slots__`, in order, and its own `__init__` stores each one with
`_set_field(self, name, value)` before it checks them.
"""

from operator import attrgetter

# Stores a field from `__init__`, past `Record.__setattr__`, which refuses.
_set_field = object.__setattr__


class Record:
    """Base of the value types: fields are read-only, two records are equal
    only when they are of the same class and their fields are equal, the
    hash is that of the field tuple, and pickle and copy rebuild a record
    through its constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += vars(cls).get("__slots__", ())  # a subclass keeps its base's fields
        get = attrgetter(*cls._fields)
        # the field values in order; attrgetter returns a bare value for one name
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values
