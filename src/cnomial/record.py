"""Immutable value records.

A record class declares its fields once, in order, as annotated
``__slots__``; ``Record.__init__`` binds them from positional or keyword
arguments, each given once, as ``def __init__(self, field_1, ...)`` would.
A record that validates checks its arguments, then passes them on.  It
compares equal only to a record of the same class with equal fields, hashes
as its field tuple, prints as ``Name(field=value, ...)`` and refuses
assignment and deletion.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            # At equal counts an unknown or repeated keyword leaves a field of rest out.
            if len(args) + len(kwargs) != len(fields) or not all(map(kwargs.__contains__, rest)):
                raise TypeError(f"{type(self).__qualname__}() takes {', '.join(fields)} once "
                                f"each, got {len(args)} positional and keywords {sorted(kwargs)}")
            args += tuple(map(kwargs.__getitem__, rest))
        for field, value in zip(fields, args):
            _set(self, field, value)

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
