"""The base of semsim's record classes: repr, equality and hashing by value.

Records are plain classes with a hand-written __init__. Such a class
statement costs microseconds at import; a class whose methods are generated
from source text and compiled at import costs hundreds, and the standard
library's generator pulls in inspect, ast and tokenize besides, none of
which `semsim run` needs. A record names its fields, in constructor order,
in `_fields`.
"""
from __future__ import annotations


class Record:
    """A mutable record: repr and == by value over `_fields`; unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


#: How a frozen record's __init__ sets a field: object.__setattr__ is the one
#: way past FrozenRecord.__setattr__, and a module-level name for it saves an
#: attribute lookup on every field of every construction.
set_field = object.__setattr__


class FrozenRecord(Record):
    """An immutable record, hashed by value. Its __init__ sets each field
    with set_field."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __reduce__(self):
        # Copy and pickle rebuild through __init__: restoring slots would
        # assign fields, and that raises above.
        return (type(self), self._values())
