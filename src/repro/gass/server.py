"""GASS: Global Access to Secondary Storage (paper §3.4).

The Condor-G GridManager runs a GASS server on the submit machine; the
remote JobManager fetches the job's executable and stdin from it and
streams stdout/stderr back to it.  URLs look like
``gass://<host>/<service>/<path>``.

Transfers are paid for in simulated time: ``size / bandwidth`` plus the
normal per-message network latency.  The server's file store is backed by
the host's stable storage, so a server built again after a submit-machine
reboot has the same files (the job queue and staged files live on disk).
"""

from __future__ import annotations

from typing import Optional

from ..sim.hosts import Host
from ..sim.rpc import Service
from ..sim.stats import fold
from .files import FileStore, SimFile

# Bytes by server host, in the registry.  A put or append record does not
# name its peer, so ``gass.transfers`` is kept by hand.
for _event, _direction in (("get", "sent"), ("put", "received"),
                           ("append", "received")):
    fold("gass", _event, f"gass.bytes_{_direction}",
         lambda c, r: c.inc(r.details["size"],
                            label=r.component.partition(":")[2]))

DEFAULT_BANDWIDTH = 1_000_000.0   # bytes per simulated second


def make_url(host: str, service: str, path: str) -> str:
    return f"gass://{host}/{service}/{path.lstrip('/')}"


def parse_url(url: str) -> tuple[str, str, str]:
    """-> (host, service, path)."""
    if not url.startswith("gass://"):
        raise ValueError(f"not a gass URL: {url!r}")
    rest = url[len("gass://"):]
    parts = rest.split("/", 2)
    if len(parts) < 3:
        raise ValueError(f"gass URL needs host/service/path: {url!r}")
    return parts[0], parts[1], parts[2]


class GassServer(Service):
    """File service with get/put/append and offset reads.

    ``received`` tracks how many bytes of each streamed file have arrived;
    a reconnecting JobManager asks for it to resume streaming from the
    right offset instead of resending everything (§3.2).
    """

    service_name = "gass"

    def __init__(
        self,
        host: Host,
        name: str = "",
        authorizer=None,
        bandwidth: float = DEFAULT_BANDWIDTH,
    ):
        super().__init__(host, name=name or self.service_name,
                         authorizer=authorizer)
        self.files = FileStore(host.stable.namespace(f"gass:{self.name}"))
        self.bandwidth = bandwidth

    # -- address -----------------------------------------------------------
    def url(self, path: str) -> str:
        return make_url(self.host.name, self.name, path)

    def _pay(self, nbytes: int):
        if self.bandwidth and nbytes > 0:
            return self.sim.timeout(nbytes / self.bandwidth)
        return self.sim.timeout(0.0)

    # -- handlers -----------------------------------------------------------
    def handle_get(self, ctx, path: str):
        f = self.files.get(path)
        yield self._pay(f.size)
        self.sim.metrics.counter("gass.transfers").inc(label=ctx.caller_host)
        self.sim.trace.log(f"gass:{self.host.name}", "get", path=path,
                           size=f.size, to=ctx.caller_host)
        return {"path": f.path, "size": f.size, "data": f.data,
                "checksum": f.checksum}

    def handle_put(self, ctx, path: str, size: int = 0, data: str = ""):
        f = SimFile(path, size=size, data=data)
        yield self._pay(f.size)
        self.files.put(f)
        self.sim.metrics.counter("gass.transfers").inc(label=ctx.caller_host)
        self.sim.trace.log(f"gass:{self.host.name}", "put", path=path,
                           size=f.size)
        return f.size

    def handle_append(self, ctx, path: str, data: str, offset: int = -1):
        """Append a stream chunk; `offset` guards against duplicates.

        If the chunk's claimed offset is behind what we already have, the
        overlap is dropped (duplicate after a resend); a gap is an error
        the caller must fill by resending from `received`.
        """
        current = self.files.get(path).size if self.files.exists(path) else 0
        if offset >= 0:
            if offset > current:
                raise ValueError(
                    f"stream gap on {path}: have {current}, got {offset}")
            skip = current - offset
            data = data[skip:]
        yield self._pay(len(data))
        f = self.files.append(path, data)
        if data:
            self.sim.metrics.counter("gass.transfers").inc(
                label=ctx.caller_host)
            self.sim.trace.log(f"gass:{self.host.name}", "append",
                               path=path, size=len(data), total=f.size)
        return f.size

    def handle_received(self, ctx, path: str) -> int:
        """How many bytes of `path` this server already has."""
        return self.files.get(path).size if self.files.exists(path) else 0

    # -- local convenience ----------------------------------------------------
    def stage_in(self, path: str, size: int = 0, data: str = "") -> str:
        """Place a local file into the store; returns its URL."""
        self.files.put(SimFile(path, size=size, data=data))
        return self.url(path)

    def read(self, path: str) -> SimFile:
        return self.files.get(path)
