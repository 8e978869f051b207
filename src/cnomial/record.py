"""Immutable value records.

A record class lists its fields, in order, as ``__slots__`` and sets them
in its own ``__init__`` through ``_set``.  It then compares equal only to a
record of the same class with equal fields, hashes as its field tuple,
prints as ``Name(field=value, ...)`` and refuses assignment and deletion.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
