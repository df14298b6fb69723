"""ClassAd value domain.

ClassAd expressions evaluate to one of:

* ``int``, ``float``, ``str``, ``bool`` (Python natives),
* the singletons :data:`UNDEFINED` and :data:`ERROR`.

UNDEFINED arises from missing attributes; ERROR from type mismatches,
division by zero, bad arguments, or cyclic attribute definitions.
Both propagate through strict operators; the logical operators ``&&`` and
``||`` are non-strict in the ClassAd way (``False && UNDEFINED == False``).
"""

from __future__ import annotations

import enum
import math
from typing import Any


class Special(enum.Enum):
    """UNDEFINED (missing information) or ERROR (a bad computation)."""

    UNDEFINED = "undefined"
    ERROR = "error"

    def __bool__(self) -> bool:
        raise TypeError(
            f"{self.name} has no Python truth value; use is_true()")


UNDEFINED = Special.UNDEFINED
ERROR = Special.ERROR


def is_special(value: Any) -> bool:
    return value is UNDEFINED or value is ERROR


def is_true(value: Any) -> bool:
    """ClassAd truth: only the boolean True (or nonzero number) is true."""
    if value is True:
        return True
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return value != 0
    return False


def is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def value_repr(value: Any) -> str:
    """Render a value in ClassAd source syntax."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is UNDEFINED or value is ERROR:
        return value.value
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, float):
        # inf and nan have no literal: as words they parse as attributes
        return repr(value) if math.isfinite(value) else f'real("{value}")'
    return str(value)
