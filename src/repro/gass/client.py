"""GASS client helpers (generator functions for use with ``yield from``)."""

from __future__ import annotations

from typing import Optional

from ..sim.hosts import Host
from ..sim.rpc import call
from .server import parse_url


def gass_get(src: Host, url: str, credential=None, timeout: float = 60.0):
    """Fetch a file by URL; returns {'path', 'size', 'data'}."""
    host, service, path = parse_url(url)
    result = yield from call(src, host, service, "get", timeout=timeout,
                             credential=credential, path=path)
    return result


def gass_put(src: Host, url: str, size: int = 0, data: str = "",
             credential=None, timeout: float = 60.0):
    """Store a file at URL; returns the stored size."""
    host, service, path = parse_url(url)
    result = yield from call(src, host, service, "put", timeout=timeout,
                             credential=credential, path=path, size=size,
                             data=data)
    return result


def gass_append(src: Host, url: str, data: str, offset: int = -1,
                credential=None):
    """Append a stream chunk at URL; returns the server's new size."""
    host, service, path = parse_url(url)
    result = yield from call(src, host, service, "append", timeout=60.0,
                             credential=credential, path=path, data=data,
                             offset=offset)
    return result


def gass_received(src: Host, url: str, credential=None,
                  timeout: float = 60.0):
    """Ask the server how many bytes of `url` it already holds."""
    host, service, path = parse_url(url)
    result = yield from call(src, host, service, "received", timeout=timeout,
                             credential=credential, path=path)
    return result
