"""GridFTP server."""

from __future__ import annotations

from ..gass.files import FileStore, SimFile
from ..sim.hosts import Host
from ..sim.rpc import Service, call

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
        persistent: bool = True,
    ):
        super().__init__(host, authorizer=authorizer)
        # Rebuilt from the same on-disk namespace by whoever boots us.
        stable_ns = host.stable.namespace("gridftp") if persistent else None
        self.files = FileStore(stable_ns)
        self.bandwidth = bandwidth
        self._corrupt_pending = 0

    def url(self, path: str) -> str:
        return make_gsiftp_url(self.host.name, path)

    def _pay(self, nbytes: int):
        if self.bandwidth and nbytes > 0:
            return self.sim.timeout(nbytes / self.bandwidth)
        return self.sim.timeout(0.0)

    # -- accounting ----------------------------------------------------------
    # Totals live in the simulator's MetricsRegistry (split by server host
    # and by peer) so grid.metrics rollups can read them; the properties
    # keep the old `server.bytes_sent` attribute API working.

    def _account(self, direction: str, nbytes: int, peer: str) -> None:
        m = self.sim.metrics
        m.counter(f"gridftp.bytes_{direction}").inc(nbytes,
                                                    label=self.host.name)
        m.counter("gridftp.transfers").inc(label=peer)

    @property
    def bytes_sent(self) -> int:
        counter = self.sim.metrics.counter("gridftp.bytes_sent")
        return int(counter.labelled(self.host.name))

    @property
    def bytes_received(self) -> int:
        counter = self.sim.metrics.counter("gridftp.bytes_received")
        return int(counter.labelled(self.host.name))

    # -- chaos hook ----------------------------------------------------------
    def corrupt_next(self, n: int = 1) -> None:
        """Silently truncate the next `n` inbound stores by one byte.

        Models a bad disk/NIC: the stored copy is self-consistent (its
        own checksum matches its bytes) but no longer matches the
        checksum the sender advertised, so verification catches it.
        """
        self._corrupt_pending += n

    def _maybe_corrupt(self, f: SimFile) -> SimFile:
        if self._corrupt_pending <= 0 or f.size == 0:
            return f
        self._corrupt_pending -= 1
        damaged = SimFile(f.path, size=f.size - 1,
                          data=f.data[:-1] if f.data else "")
        self.sim.metrics.counter("gridftp.corruptions").inc(
            label=self.host.name)
        self.sim.trace.log(f"gridftp:{self.host.name}", "corrupted",
                           path=f.path, size=damaged.size)
        return damaged

    # -- handlers -----------------------------------------------------------
    def handle_retr(self, ctx, path: str):
        f = self.files.get(path)
        yield self._pay(f.size)
        self._account("sent", f.size, ctx.caller_host)
        self.sim.trace.log(f"gridftp:{self.host.name}", "retr", path=path,
                           size=f.size, to=ctx.caller_host)
        return {"path": f.path, "size": f.size, "data": f.data,
                "checksum": f.checksum}

    def handle_stor(self, ctx, path: str, size: int = 0, data: str = ""):
        f = SimFile(path, size=size, data=data)
        yield self._pay(f.size)
        f = self._maybe_corrupt(f)
        self.files.put(f)
        self._account("received", f.size, ctx.caller_host)
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

    def handle_list(self, ctx) -> list[str]:
        return self.files.list()

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
        self._account("received", f.size, src_host)
        self.sim.trace.log(f"gridftp:{self.host.name}", "third_party",
                           src=src_url, dst=dst_path, size=f.size)
        return f.size

    # -- local convenience ----------------------------------------------------
    def publish(self, path: str, size: int = 0, data: str = "") -> str:
        self.files.put(SimFile(path, size=size, data=data))
        return self.url(path)
