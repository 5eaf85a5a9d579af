"""The frozen value record that the package's result and input types share.

A subclass's fields are its `__slots__`, or `_fields` where they are not all
of its slots, in constructor order.  The base constructor stores one value
per field; a record that checks its input passes it the checked values, and
one made in a hot loop sets its slots through their descriptors instead.
Equality, hash, repr and pickling read the fields alone, and unpickling calls
the constructor again, so a pickled record is checked anew.  This stands in
for a frozen `dataclass`, whose import and generated methods would cost every
short command several milliseconds at start-up.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__slots__" in cls.__dict__ and "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {fields}, got {len(values)} values")
        for f, v in zip(fields, values):  # past the frozen __setattr__
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

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
