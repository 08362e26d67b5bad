"""The base of the package's record classes that are not named tuples.

A record class names the fields that ``==``, ``hash`` and ``repr`` read in
``_fields``, and lists them in ``__slots__`` with any attribute they leave
out (a memo, a derived callable).  Its ``__init__`` sets every slot, a
frozen record's through ``object.__setattr__``.  ``repr`` is
``Name(field=value, ...)``, and ``==`` holds between two instances of one
class whose fields are equal: a record never equals a tuple, nor a record
of another class.  A :class:`Record` is mutable and unhashable; a
:class:`Frozen` one hashes its fields and raises ``AttributeError`` on
assignment.  Both can be weakly referenced.  That is what ``@dataclass``
builds, without generating and compiling methods for each class at import.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" in cls.__dict__:  # the class that declares the record
            cls.__match_args__ = cls._fields
            # the class as a last item makes the values a tuple, even of one field
            cls._values = attrgetter(*cls._fields, "__class__")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Copies and pickles restore the slots without ``__setattr__``."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
