"""The transfer scheduler daemon (DTS: data transfer service).

Third-party GridFTP moves, queued per network *link* (an ordered
``src -> dst`` host pair).  Each link admits at most ``max_streams``
concurrent transfers (FIFO, via a semaphore) and is paced to a
configurable link bandwidth: a transfer never finishes faster than
``size / link_bandwidth`` of link time, however fat the endpoint pipes
are.  Failed transfers retry with exponential backoff; every arrival is
checksum-verified against the catalog's expectation, and corrupt copies
are deleted and re-pulled.  Verified replicas are registered back into
the replica catalog so the next consumer finds them.
"""

from __future__ import annotations

from ..gridftp.client import (
    gridftp_checksum,
    gridftp_delete,
    third_party_transfer,
)
from ..gridftp.server import make_gsiftp_url, parse_gsiftp_url
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from ..sim.stats import fold
from ..sim.sync import Semaphore
from .catalog import CATALOG_HOST

fold("dts", "checksum_mismatch", "dts.checksum_mismatch",
     lambda c, r: c.inc(label=_link(r)))
fold("dts", "transfer", "dts.transfers", lambda c, r: c.inc(label=_link(r)))
fold("dts", "transfer", "dts.bytes_moved",
     lambda c, r: c.inc(r.details["size"], label=_link(r)))
fold("dts", "transfer_failed", "dts.failures",
     lambda c, r: c.inc(label=_link(r)))

DTS_HOST = "dts"


def _link(rec) -> str:
    """The ``src->dst`` host pair a ``dts`` record's URLs name."""
    return (f"{parse_gsiftp_url(rec.details['src'])[0]}->"
            f"{parse_gsiftp_url(rec.details['dst'])[0]}")


class TransferScheduler(Service):
    """Per-link queued, paced, verified third-party transfers."""

    service_name = "dts"

    def __init__(
        self,
        host: Host,
        catalog_host: str = CATALOG_HOST,
        link_bandwidth: float = 5_000_000.0,
        max_streams: int = 2,
        max_retries: int = 4,
        retry_backoff: float = 5.0,
        attempt_timeout: float = 300.0,
    ):
        super().__init__(host)
        self.catalog_host = catalog_host
        self.link_bandwidth = link_bandwidth
        self.max_streams = max_streams
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        # Bound on a single attempt's RPC: a crashed endpoint must fail
        # the attempt, not absorb the whole retry budget in one wait.
        self.attempt_timeout = attempt_timeout
        self._links: dict[tuple[str, str], Semaphore] = {}

    def _link(self, src_host: str, dst_host: str) -> Semaphore:
        key = (src_host, dst_host)
        sem = self._links.get(key)
        if sem is None:
            sem = Semaphore(self.sim, self.max_streams,
                            name=f"link:{src_host}->{dst_host}")
            self._links[key] = sem
        return sem

    # -- handlers ------------------------------------------------------------
    def handle_transfer(self, ctx, src_url: str, dst_host: str,
                        dst_path: str, dataset: str = "",
                        expected_checksum: str = ""):
        """Move `src_url` to `dst_host:dst_path`; returns {size, attempts}.

        Queues on the link's stream semaphore, paces the move to the
        link bandwidth, verifies the arrived copy's checksum (when an
        expectation is known), and registers the replica under
        `dataset` in the catalog.  Raises RPCError (-> RemoteError at
        the caller) after `max_retries` failed attempts.
        """
        src_host, _src_path = parse_gsiftp_url(src_url)
        link_label = f"{src_host}->{dst_host}"
        to_url = make_gsiftp_url(dst_host, dst_path)
        metrics = self.sim.metrics
        metrics.counter("dts.requests").inc(label=link_label)
        enqueued = self.sim.now
        sem = self._link(src_host, dst_host)
        yield sem.acquire()
        metrics.histogram("dts.queue_wait").observe(self.sim.now - enqueued)
        try:
            last_error = "exhausted"
            for attempt in range(1, self.max_retries + 1):
                started = self.sim.now
                try:
                    size = yield from third_party_transfer(
                        self.host, src_url, to_url,
                        credential=ctx.credential,
                        timeout=self.attempt_timeout)
                    # Pace to the link: endpoint pipes may be faster
                    # than the WAN between them.
                    floor = size / self.link_bandwidth \
                        if self.link_bandwidth else 0.0
                    elapsed = self.sim.now - started
                    if elapsed < floor:
                        yield self.sim.timeout(floor - elapsed)
                    if expected_checksum:
                        actual = yield from gridftp_checksum(
                            self.host, to_url, credential=ctx.credential)
                        if actual != expected_checksum:
                            self.sim.trace.log("dts", "checksum_mismatch",
                                               src=src_url, dst=to_url,
                                               attempt=attempt)
                            last_error = "checksum mismatch"
                            yield from gridftp_delete(
                                self.host, to_url,
                                credential=ctx.credential)
                            yield self.sim.timeout(
                                self.retry_backoff * (2 ** (attempt - 1)))
                            continue
                    if dataset and self.catalog_host:
                        yield from call(self.host, self.catalog_host,
                                        "rls", "register", timeout=60.0,
                                        credential=ctx.credential,
                                        name=dataset, se_host=dst_host,
                                        size=size,
                                        checksum=expected_checksum,
                                        url=to_url)
                except RPCError as exc:
                    # Covers the move itself *and* the verify/register
                    # RPCs: an endpoint dying after the bytes land must
                    # burn one attempt, not abort the whole request.
                    last_error = str(exc)
                    metrics.counter("dts.retries").inc(label="rpc")
                    yield self.sim.timeout(
                        self.retry_backoff * (2 ** (attempt - 1)))
                    continue
                metrics.histogram("dts.transfer_time").observe(
                    self.sim.now - started)
                self.sim.trace.log("dts", "transfer", src=src_url,
                                   dst=to_url, size=size, attempts=attempt)
                return {"size": size, "attempts": attempt}
            self.sim.trace.log("dts", "transfer_failed", src=src_url,
                               dst=to_url, reason=last_error)
            raise RPCError(
                f"transfer {src_url} -> {to_url} failed after "
                f"{self.max_retries} attempts: {last_error}")
        finally:
            sem.release()
