"""Frozen value records without the import cost of ``dataclasses``."""


class Record:
    """An immutable value with the fields its subclass names in
    ``__slots__``, given by position or keyword, checked by ``_check``;
    compared, hashed, copied and pickled by the tuple of its fields."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names, given = self.__slots__, len(args)
        if (given + len(kwargs) != len(names)
                or not kwargs.keys() <= set(names[given:])):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}"
                            f", got {given} and {sorted(kwargs)}")
        args += tuple(kwargs[name] for name in names[given:])
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise ValueError on inconsistent fields; the default takes any."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__  # called with the name alone

    def __reduce__(self):
        return type(self), self._values()
