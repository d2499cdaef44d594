"""The frozen record base of the package's result types.

A subclass names its fields in ``__slots__`` and sets each one in its own
positional ``__init__`` with ``set_field``, next to its checks.  The base
gives it value semantics with no code generated per class: ``==`` and
``hash`` on the field tuple of one class, a ``Name(field=value, ...)``
repr, ``__match_args__``, refusal of assignment and deletion, and pickling
and copying that call ``__init__`` on the fields again.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._values()
