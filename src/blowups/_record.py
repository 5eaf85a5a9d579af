"""The frozen value record that the package's result and input types share.

A subclass names its fields in `_fields`, in the order its `__init__` takes
them, and sets them in that `__init__` by `_set_fields` or, where a record is
made in a hot loop, through its slot descriptors.  Equality, hash, repr and
pickling read those fields alone, and unpickling calls `__init__` again, so a
pickled record is checked anew.  This stands in for a frozen `dataclass`,
whose import and generated methods would cost every short command several
milliseconds at start-up.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def _set_fields(self, *values) -> None:
        # for an __init__: the fields in `_fields` order, past the frozen __setattr__
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
