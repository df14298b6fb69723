"""A snapshot: the run digest of a testbed at a time.

A :class:`SimSnapshot` is ``(time, digest)``, where ``digest`` is
:func:`repro.chaos.digest.run_digest` taken at ``time`` -- the one
digest the chaos audit, the goldens and the suite check.  Taking one
does not perturb the run.

Generator frames are not serialized (CPython cannot pickle a suspended
frame), so a snapshot is *resumed* by running the live testbed on, and
*rehydrated* by rebuilding: a fresh ``scenario.build(seed)`` (with the
same fault plan applied) run to ``snap.time`` has the snapshot's digest,
and runs on to the same end digest.  Evaluating futures of a live
testbed without replay is the chaos shrinker's
:class:`repro.chaos.shrink.ForkPoint`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import SimulationError


class SnapshotError(SimulationError):
    """A malformed snapshot document, or a forked evaluation that failed."""


#: each field of a snapshot document and the JSON types it may hold
_FIELD_TYPES = {"time": (int, float), "digest": str}


@dataclass
class SimSnapshot:
    """The run digest of a testbed at simulated time ``time``."""

    time: float
    digest: str

    def to_json(self) -> str:
        return json.dumps(vars(self))

    @classmethod
    def from_json(cls, text: str) -> "SimSnapshot":
        """Parse a :meth:`to_json` document, which is outside input: a
        JSON object with exactly these fields, of their types, and a
        finite non-negative ``time``, or a :class:`SnapshotError`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SnapshotError(f"snapshot document is not JSON: {exc}") \
                from None
        if not isinstance(data, dict):
            raise SnapshotError("snapshot document is not a JSON object")
        if set(data) != set(_FIELD_TYPES):
            raise SnapshotError(
                f"snapshot document lacks keys "
                f"{sorted(set(_FIELD_TYPES) - set(data))}, has unknown keys "
                f"{sorted(set(data) - set(_FIELD_TYPES))}")
        for name, types in _FIELD_TYPES.items():
            if type(data[name]) is bool or not isinstance(data[name], types):
                raise SnapshotError(f"snapshot document: {name} has type "
                                    f"{type(data[name]).__name__}")
        if not 0 <= data["time"] < math.inf:
            raise SnapshotError(f"snapshot document: time {data['time']!r} "
                                f"is not finite and non-negative")
        return cls(**{**data, "time": float(data["time"])})


__all__ = ["SimSnapshot", "SnapshotError"]
