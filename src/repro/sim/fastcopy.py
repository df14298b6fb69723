"""What crosses a wire or hits a disk: the value contract.

What crosses is ``freeze(value)``.  Nothing a sender or a writer does
after the crossing is visible on the other side, and a receiver or a
reader cannot change what it got (no object sharing across hosts that
either side could edit; aliasing can never masquerade as persistence).
:func:`fast_deepcopy` -- a name kept from when it copied -- is the one
function the three boundaries call: ``rpc`` for each argument, the
credential and the result, ``StableStorage`` on write.  A stored value
is read back as the very object that was stored.  How :func:`freeze`
treats each kind of value:

* an **immutable value** crosses *by reference*: atoms (``str``,
  numbers, ``None``, ``bytes``, ``Enum`` members, plain functions), a
  tuple of such values, and every *declared* type -- a frozen dataclass
  deriving from :class:`Immutable`, whose fields are frozen at
  construction, :class:`FrozenDict`, the mapping those fields and the
  persisted progress records are made of, and a sealed ``ClassAd``;
* a **sealable** builder -- one with a ``__sealed__()`` method, i.e. an
  unsealed ``ClassAd`` -- crosses as a sealed copy; the sender keeps
  its builder;
* a plain ``dict`` becomes a :class:`FrozenDict` and a ``list`` or
  ``tuple`` a tuple, recursively: the one copy, made once, at the
  crossing (payloads are trees by construction; a cycle through plain
  containers is not supported);
* anything else is refused with ``TypeError``.

To declare a type, make it true: derive a ``@dataclass(frozen=True)``
from :class:`Immutable` (containers handed to its constructor are then
frozen, undeclared objects refused), or give a builder type a one-way
``seal()`` to a :func:`declare`-d type whose mutators raise, and a
``__sealed__()``.  There is no opt-out: a value that cannot change
needs none, and one that can must not cross.
"""

from __future__ import annotations

from enum import Enum
from types import BuiltinFunctionType, FunctionType
from typing import Any, NoReturn

#: Exact types whose instances cross by reference.  Declarations add to
#: it (:func:`declare`, ``Immutable.__init_subclass__``), as does the
#: first member seen of each ``Enum`` class.
_SHARED = {str, int, float, bool, bytes, type(None),
           FunctionType, BuiltinFunctionType}


def declare(cls: type) -> type:
    """Class decorator: instances of exactly `cls` cross by reference."""
    _SHARED.add(cls)
    return cls


def _enum(cls: type) -> bool:
    """Whether `cls` is an ``Enum`` class (which then joins ``_SHARED``)."""
    if issubclass(cls, Enum):
        _SHARED.add(cls)
        return True
    return False


def _refuse(self, *_args: Any, **_kwargs: Any) -> NoReturn:
    raise TypeError(f"{type(self).__name__} is immutable; "
                    "edit a dict(...) copy and build a new one")


@declare
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
            if not _SHARED.issuperset(map(type, self)) and not all(
                    type(key) in _SHARED or _enum(type(key)) for key in self):
                raise TypeError("FrozenDict keys must be atoms")
        if kwargs:
            dict.update(self, kwargs)
        if not _SHARED.issuperset(map(type, self.values())):
            for key, value in self.items():
                if value.__class__ not in _SHARED:
                    dict.__setitem__(self, key, freeze(value))

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class Immutable:
    """Base of a ``@dataclass(frozen=True)`` declared an immutable value:
    ``__post_init__`` (which ``dataclasses.replace`` also runs) freezes
    every field, so nothing reachable from an instance can change."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        declare(cls)

    def __post_init__(self) -> None:
        if not self.__dataclass_params__.frozen:
            raise TypeError(f"{type(self).__name__} derives from Immutable "
                            "but is not a frozen dataclass")
        state = self.__dict__
        if not _SHARED.issuperset(map(type, state.values())):
            for name, value in state.items():
                if value.__class__ not in _SHARED:
                    state[name] = freeze(value)


def freeze(obj: Any) -> Any:
    """`obj` as an immutable value: dicts become :class:`FrozenDict`,
    lists and tuples become tuples, recursively; a sealable builder
    becomes a sealed copy; an object of an undeclared type is refused
    with ``TypeError``."""
    cls = obj.__class__
    if cls in _SHARED:
        return obj
    if cls is dict:
        return FrozenDict(obj)
    if cls is tuple or cls is list:
        if _SHARED.issuperset(map(type, obj)):
            return obj if cls is tuple else tuple(obj)
        return tuple(map(freeze, obj))
    sealed = getattr(cls, "__sealed__", None)
    if sealed is not None:
        return sealed(obj)
    if _enum(cls):
        return obj
    raise TypeError(f"{cls.__name__} is not declared immutable "
                    "(see repro.sim.fastcopy)")


def fast_deepcopy(obj: Any) -> Any:
    """What the far side of a boundary gets for `obj`: ``freeze(obj)``.

    Not itself recursive, so a profile's call count for this function is
    the number of payloads that crossed.
    """
    return freeze(obj)
