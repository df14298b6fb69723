"""GridFTP client helpers (``yield from`` generators)."""

from __future__ import annotations

from ..sim.hosts import Host
from ..sim.rpc import call
from .server import parse_gsiftp_url


def gridftp_get(src: Host, url: str, credential=None,
                timeout: float = 600.0):
    host, path = parse_gsiftp_url(url)
    result = yield from call(src, host, "gridftp", "retr", timeout=timeout,
                             credential=credential, path=path)
    return result


def gridftp_put(src: Host, url: str, size: int = 0, data: str = "",
                credential=None, timeout: float = 600.0):
    host, path = parse_gsiftp_url(url)
    result = yield from call(src, host, "gridftp", "stor", timeout=timeout,
                             credential=credential, path=path, size=size,
                             data=data)
    return result


def gridftp_size(src: Host, url: str, credential=None):
    host, path = parse_gsiftp_url(url)
    result = yield from call(src, host, "gridftp", "size", timeout=60.0,
                             credential=credential, path=path)
    return result


def gridftp_checksum(src: Host, url: str, credential=None):
    host, path = parse_gsiftp_url(url)
    result = yield from call(src, host, "gridftp", "checksum",
                             timeout=60.0, credential=credential,
                             path=path)
    return result


def gridftp_delete(src: Host, url: str, credential=None):
    host, path = parse_gsiftp_url(url)
    result = yield from call(src, host, "gridftp", "delete",
                             timeout=60.0, credential=credential,
                             path=path)
    return result


def third_party_transfer(src: Host, from_url: str, to_url: str,
                         credential=None, timeout: float = 1200.0):
    """Ask the destination server to pull `from_url` (data bypasses us).

    The caller's credential is forwarded so the destination can
    authenticate to the source on the user's behalf (GSI delegation).
    """
    dst_host, dst_path = parse_gsiftp_url(to_url)
    result = yield from call(src, dst_host, "gridftp", "fetch_from",
                             timeout=timeout, credential=credential,
                             src_url=from_url, dst_path=dst_path)
    return result
