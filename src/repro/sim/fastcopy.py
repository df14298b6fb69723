"""Structural deep copy for simulation payloads.

``copy.deepcopy`` dominated the profile of large runs: every datagram is
copied once at the network boundary (serialization semantics -- no
object sharing across hosts) and every persisted queue record is copied
on write and on read (so aliasing can never masquerade as persistence).
Those payloads are almost entirely trees of dicts/lists/tuples over
primitives, for which ``deepcopy``'s generic memo machinery is ~10x
slower than a direct structural walk.

:func:`fast_deepcopy` copies exactly those shapes directly and falls
back to ``copy.deepcopy`` for anything else (dataclasses, ClassAds --
which define ``__deepcopy__`` -- sets, exotic objects), so semantics
match ``deepcopy`` for every payload the simulator actually ships.
``enum.Enum`` members are singletons that ``deepcopy`` returns as
themselves; they are returned directly (``JobState`` is in every
persisted queue record).  The
one intentional difference: reference cycles *through plain
dict/list/tuple containers* are not supported (RPC payloads and queue
records are trees by construction; objects handled by the fallback keep
full cycle support).
"""

from __future__ import annotations

import copy
from enum import Enum
from typing import Any

_ATOMIC = (str, int, float, bool, bytes, type(None))


def _walk(obj: Any) -> Any:
    cls = obj.__class__
    if cls in _ATOMIC:
        return obj
    if cls is dict:
        return {_walk(k): _walk(v) for k, v in obj.items()}
    if cls is list:
        return [_walk(v) for v in obj]
    if cls is tuple:
        return tuple(_walk(v) for v in obj)
    if isinstance(obj, Enum):
        return obj
    return copy.deepcopy(obj)


def fast_deepcopy(obj: Any) -> Any:
    """Deep-copy `obj`: plain containers structurally, the rest via
    ``copy.deepcopy``.

    Not itself recursive, so a profile's call count for this function is
    the number of payloads copied.
    """
    return _walk(obj)
