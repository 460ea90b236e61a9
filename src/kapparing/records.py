"""Immutable value records.

A small stand-in for frozen dataclasses: ``dataclasses`` imports ``inspect``
and with it ``ast``, ``dis`` and ``tokenize``, which every ``kappa`` call and
every ``import kapparing`` would pay for.
"""

from __future__ import annotations


class Record:
    """Named fields set once at construction, compared and hashed by value.

    A subclass lists its fields in ``__slots__``; that order is the order of
    positional arguments, of ``repr`` and of ``as_dict``.  ``_defaults``
    gives default values, ``_uncompared`` names fields left out of ``==``
    and ``hash``, and ``_check`` validates a new instance.
    """

    __slots__ = ()
    _defaults: dict = {}
    _uncompared: frozenset = frozenset()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes at most {len(fields)} arguments")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            if name in values:
                raise TypeError(f"{type(self).__name__} got two values for {name!r}")
            values[name] = value
        for name in fields:
            if name in values:
                value = values[name]
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name not in self._uncompared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"

    def as_dict(self) -> dict:
        """The fields and their values, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}
