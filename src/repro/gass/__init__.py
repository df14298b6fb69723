"""GASS: Global Access to Secondary Storage (paper §3.4)."""

from .client import gass_append, gass_get, gass_put, gass_received
from .files import FileStore, SimFile
from .server import (
    DEFAULT_BANDWIDTH,
    GassServer,
    make_url,
    parse_url,
)

__all__ = [
    "DEFAULT_BANDWIDTH", "FileStore", "GassServer", "SimFile",
    "gass_append", "gass_get", "gass_put", "gass_received", "make_url",
    "parse_url",
]
