"""What crosses a wire or hits a disk: the value contract.

Nothing a sender or a writer does after the crossing may be visible on
the other side (no object sharing across hosts; aliasing can never
masquerade as persistence).  :func:`fast_deepcopy` is the one function
the three boundaries call -- ``rpc`` for arguments, credential and
result, ``StableStorage`` on write and on read -- and it enforces that
in the cheapest way that is still true:

* an **immutable value** crosses *by reference*: atoms (``str``, numbers,
  ``None``, ``bytes``, ``Enum`` members, plain functions -- what
  ``copy.deepcopy`` also returns as itself), a tuple of such values, and
  every *declared* type -- a frozen dataclass deriving from
  :class:`Immutable`, whose fields are frozen at construction, and
  :class:`FrozenDict`, the mapping those fields and the persisted
  progress records are made of;
* a **sealable** type -- one with a ``__sealed__()`` method, i.e.
  ``ClassAd`` -- crosses as its sealed form: copied and sealed the first
  time, by reference ever after;
* plain ``dict``/``list``/``tuple`` trees are copied structurally
  (reference cycles through them are not supported: payloads are trees
  by construction);
* anything else takes ``copy.deepcopy``, ~10x slower.  That is the safety
  path for a type nobody declared, and it is on no benchmarked path
  (``tests/sim/test_value_gates.py``).

To declare a type, make it true: derive a ``@dataclass(frozen=True)``
from :class:`Immutable` (containers handed to its constructor are then
frozen by :func:`freeze`, undeclared objects refused), or give a builder
type a one-way ``seal()`` and a ``__sealed__()``.  There is no opt-out:
a value that is immutable needs none, and one that is not must be copied.
"""

from __future__ import annotations

import copy
from enum import Enum
from types import BuiltinFunctionType, FunctionType
from typing import Any, NoReturn

#: Exact types whose instances cross by reference.  Declarations add to
#: it (``Immutable.__init_subclass__``), as does the first member seen
#: of each ``Enum`` class.
_SHARED = {str, int, float, bool, bytes, type(None),
           FunctionType, BuiltinFunctionType}

_UNDECLARED = object()


def _declared(obj: Any, cls: type) -> Any:
    """The by-reference form of a non-container `obj`, or ``_UNDECLARED``."""
    sealed = getattr(cls, "__sealed__", None)
    if sealed is not None:
        return sealed(obj)
    if issubclass(cls, Enum):
        _SHARED.add(cls)
        return obj
    return _UNDECLARED


def _refuse(self, *_args: Any, **_kwargs: Any) -> NoReturn:
    raise TypeError(f"{type(self).__name__} is immutable; "
                    "edit a dict(...) copy and build a new one")


class FrozenDict(dict):
    """A dict that refuses mutation and holds only immutable values.

    Reads, equality, ``json`` and ``**`` unpacking are plain ``dict``;
    ``dict(fd)``, ``fd.copy()``, ``{**fd}`` and ``fd | other`` give an
    editable plain dict.
    """

    __slots__ = ()

    def __init__(self, mapping: Any = (), /, **kwargs: Any):
        if mapping:
            dict.update(self, mapping)
            if not _SHARED.issuperset(map(type, self)):
                raise TypeError("FrozenDict keys must be atoms")
        if kwargs:
            dict.update(self, kwargs)
        if not _SHARED.issuperset(map(type, self.values())):
            for key, value in self.items():
                if value.__class__ not in _SHARED:
                    dict.__setitem__(self, key, freeze(value))

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __deepcopy__(self, memo: dict) -> "FrozenDict":
        return self

    def __reduce__(self) -> tuple:     # pickle must not go through setitem
        return (FrozenDict, (dict(self),))


_SHARED.add(FrozenDict)


class Immutable:
    """Base of a ``@dataclass(frozen=True)`` declared an immutable value:
    ``__post_init__`` (which ``dataclasses.replace`` also runs) freezes
    every field, so nothing reachable from an instance can change."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _SHARED.add(cls)

    def __post_init__(self) -> None:
        if not self.__dataclass_params__.frozen:
            raise TypeError(f"{type(self).__name__} derives from Immutable "
                            "but is not a frozen dataclass")
        state = self.__dict__
        if not _SHARED.issuperset(map(type, state.values())):
            for name, value in state.items():
                if value.__class__ not in _SHARED:
                    state[name] = freeze(value)

    def __deepcopy__(self, memo: dict) -> "Immutable":
        return self


def freeze(obj: Any) -> Any:
    """`obj` as an immutable value: dicts become :class:`FrozenDict`,
    lists and tuples become tuples, recursively; a sealable object is
    sealed (copied first if it was not); an object of an undeclared type
    is refused."""
    cls = obj.__class__
    if cls in _SHARED:
        return obj
    if cls is dict:
        return FrozenDict(obj)
    if cls is tuple and _SHARED.issuperset(map(type, obj)):
        return obj
    if cls is list or cls is tuple:
        return tuple(map(freeze, obj))
    value = _declared(obj, cls)
    if value is _UNDECLARED:
        raise TypeError(f"{cls.__name__} is not declared immutable "
                        "(see repro.sim.fastcopy)")
    return value


def _walk(obj: Any) -> Any:
    cls = obj.__class__
    if cls in _SHARED:
        return obj
    if cls is dict:
        return {_walk(k): _walk(v) for k, v in obj.items()}
    if cls is list:
        return [_walk(v) for v in obj]
    if cls is tuple:
        if _SHARED.issuperset(map(type, obj)):
            return obj
        return tuple(_walk(v) for v in obj)
    value = _declared(obj, cls)
    if value is _UNDECLARED:
        return copy.deepcopy(obj)
    return value


def fast_deepcopy(obj: Any) -> Any:
    """What the far side of a boundary gets for `obj`: immutable values
    by reference, sealable ones sealed, plain containers copied
    structurally, the rest via ``copy.deepcopy``.

    Not itself recursive, so a profile's call count for this function is
    the number of payloads that crossed.
    """
    return _walk(obj)
