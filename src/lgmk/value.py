"""The base of the package's immutable value classes.

A value class names in `_fields` the fields its `repr` shows, in the order
its constructor takes them.  The base constructor stores one argument per
field in the instance `__dict__`, and raises TypeError for any other
number.  The records `Polynomial`, `Staircase`, `SymmetryGroup`,
`SectorElement`, `AModel`, `BModel` and `SearchReport` use it.  A class
defines its own `__init__` only to validate or normalise its fields, give
one a default, or store something no field names: `WeightSystem`,
`Monomial`, `GroupElement`, `Classification` and `GradedDims`.  Equality
and the hash read the fields named in `_compared`: all of `_fields` unless
the class names fewer.  Anything else an `__init__` stores, such as a
callback, takes part in neither.  Any assignment or deletion
raises AttributeError.  A `functools.cached_property` still works on a
value: it writes the instance `__dict__` directly, not through
`__setattr__`.

The package does not use `dataclasses` for these: importing it loads
`inspect`, `ast` and `dis`, and each decorated class compiles its generated
methods when it is defined; together they took about a quarter of the time
from starting an interpreter to `import lgmk` returning.
"""

from __future__ import annotations


class _Value:
    __slots__ = ()

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} fields, "
                            f"got {len(values)}")
        self.__dict__.update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
