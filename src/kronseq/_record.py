"""The base of the package's immutable records.

A record behaves as a frozen dataclass does: value equality and hashing
over its fields, the dataclass ``repr``, no assignment or deletion, class
patterns by position, pickling and copying.  It is written out here
because every ``kronseq`` command starts a fresh interpreter, and
importing ``dataclasses`` (which loads ``inspect``) and building the
records with it, each class compiling its methods with ``exec``, took
about 12 ms of a 69 ms start (``python -X importtime``, Python 3.11, a
shared 2-vCPU x86-64 host).
"""

_set = object.__setattr__  # how each record's __init__ sets its fields


def _repr(value):
    """repr(value), with each int in it, also inside tuples, written by
    ``cf._str``, so that an int past the int-to-str digit limit of Python
    3.11+ prints instead of raising ValueError."""
    from .cf import _str  # cf imports this module

    if type(value) is tuple:
        return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"
    return _str(value) if type(value) is int else repr(value)


class Record:
    """A subclass lists its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and its ``__init__`` sets each with ``_set``.
    The class keyword ``uncompared`` names fields left out of equality and
    hashing, and ``hidden`` fields left out of those and of the repr.  A
    subclass of a record that lists no fields of its own keeps those of
    its parent."""

    __slots__ = ()

    def __init_subclass__(cls, uncompared=(), hidden=()):
        super().__init_subclass__()
        if not cls.__slots__:
            return
        cls.__match_args__ = cls.__slots__
        cls._shown = tuple(f for f in cls.__slots__ if f not in hidden)
        cls._compared = tuple(f for f in cls._shown if f not in uncompared)

    def _key(self):
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{f}={_repr(getattr(self, f))}" for f in self._shown])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return self.__class__, tuple([getattr(self, f) for f in self.__match_args__])
