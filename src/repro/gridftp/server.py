"""GridFTP server."""

from __future__ import annotations

from ..gass.files import FileStore, SimFile
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from ..sim.stats import fold

# Bytes and corruptions by server host, transfers by peer.
for _event, _direction, _peer in (
        ("retr", "sent", lambda r: r.details["to"]),
        ("stor", "received", lambda r: r.details["source"]),
        ("third_party", "received",
         lambda r: parse_gsiftp_url(r.details["src"])[0])):
    fold("gridftp", _event, f"gridftp.bytes_{_direction}",
         lambda c, r: c.inc(r.details["size"],
                            label=r.component.partition(":")[2]))
    fold("gridftp", _event, "gridftp.transfers",
         lambda c, r, peer=_peer: c.inc(label=peer(r)))
fold("gridftp", "corrupted", "gridftp.corruptions",
     lambda c, r: c.inc(label=r.component.partition(":")[2]))

DEFAULT_BANDWIDTH = 10_000_000.0   # bulk-transfer pipes are fat


def make_gsiftp_url(host: str, path: str) -> str:
    return f"gsiftp://{host}/{path.lstrip('/')}"


def parse_gsiftp_url(url: str) -> tuple[str, str]:
    """-> (host, path)."""
    if not url.startswith("gsiftp://"):
        raise ValueError(f"not a gsiftp URL: {url!r}")
    rest = url[len("gsiftp://"):]
    host, _, path = rest.partition("/")
    if not host or not path:
        raise ValueError(f"gsiftp URL needs host and path: {url!r}")
    return host, path


class GridFTPServer(Service):
    """A file server supporting RETR/STOR/SIZE and third-party fetch."""

    service_name = "gridftp"

    def __init__(
        self,
        host: Host,
        authorizer=None,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ):
        super().__init__(host, authorizer=authorizer)
        # Rebuilt from the same on-disk namespace by whoever boots us.
        self.files = FileStore(host.stable.namespace("gridftp"))
        self.bandwidth = bandwidth
        self._corrupt_pending = 0

    def url(self, path: str) -> str:
        return make_gsiftp_url(self.host.name, path)

    def _pay(self, nbytes: int):
        if self.bandwidth and nbytes > 0:
            return self.sim.timeout(nbytes / self.bandwidth)
        return self.sim.timeout(0.0)

    # -- chaos hook ----------------------------------------------------------
    def corrupt_next(self) -> None:
        """Silently truncate the next inbound store by one byte.

        Models a bad disk/NIC: the stored copy is self-consistent (its
        own checksum matches its bytes) but no longer matches the
        checksum the sender advertised, so verification catches it.
        """
        self._corrupt_pending += 1

    def _maybe_corrupt(self, f: SimFile) -> SimFile:
        if self._corrupt_pending <= 0 or f.size == 0:
            return f
        self._corrupt_pending -= 1
        damaged = SimFile(f.path, size=f.size - 1,
                          data=f.data[:-1] if f.data else "")
        self.sim.trace.log(f"gridftp:{self.host.name}", "corrupted",
                           path=f.path, size=damaged.size)
        return damaged

    # -- handlers -----------------------------------------------------------
    def handle_retr(self, ctx, path: str):
        f = self.files.get(path)
        yield self._pay(f.size)
        self.sim.trace.log(f"gridftp:{self.host.name}", "retr", path=path,
                           size=f.size, to=ctx.caller_host)
        return {"path": f.path, "size": f.size, "data": f.data,
                "checksum": f.checksum}

    def handle_stor(self, ctx, path: str, size: int = 0, data: str = ""):
        f = SimFile(path, size=size, data=data)
        yield self._pay(f.size)
        f = self._maybe_corrupt(f)
        self.files.put(f)
        self.sim.trace.log(f"gridftp:{self.host.name}", "stor", path=path,
                           size=f.size, source=ctx.caller_host)
        return f.size

    def handle_size(self, ctx, path: str) -> int:
        if not self.files.exists(path):
            raise FileNotFoundError(path)
        return self.files.get(path).size

    def handle_checksum(self, ctx, path: str) -> str:
        if not self.files.exists(path):
            raise FileNotFoundError(path)
        return self.files.get(path).checksum

    def handle_delete(self, ctx, path: str) -> bool:
        existed = self.files.exists(path)
        self.files.delete(path)
        return existed

    def handle_fetch_from(self, ctx, src_url: str, dst_path: str):
        """Third-party transfer: pull `src_url` into this server.

        The caller's (delegated) credential is re-used to authenticate
        to the source server on the user's behalf.
        """
        src_host, src_path = parse_gsiftp_url(src_url)
        result = yield from call(self.host, src_host, "gridftp", "retr",
                                 timeout=600.0, credential=ctx.credential,
                                 path=src_path)
        f = SimFile(dst_path, size=result["size"], data=result["data"])
        # Inbound side pays its own pipe too: a third-party move costs
        # source-side *and* destination-side bandwidth.
        yield self._pay(f.size)
        f = self._maybe_corrupt(f)
        self.files.put(f)
        self.sim.trace.log(f"gridftp:{self.host.name}", "third_party",
                           src=src_url, dst=dst_path, size=f.size)
        return f.size

    # -- local convenience ----------------------------------------------------
    def publish(self, path: str, size: int) -> str:
        self.files.put(SimFile(path, size=size))
        return self.url(path)
