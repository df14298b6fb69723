"""Checkpoint servers (paper §5).

The starter "periodically checkpoints the job to another location (e.g.,
the originating location or a local checkpoint server)".  Checkpoint
images are big; shipping them to the submit machine ("the originating
location") pauses the job for the WAN transfer, while a *site-local*
checkpoint server takes them at LAN speed.  Either way a tiny heartbeat
still reaches the Shadow so the lease machinery is unaffected.

The restart path prefers the checkpoint server's image when one is
configured; the Shadow's banked progress is the fallback (e.g. if the
checkpoint server died with the site).
"""

from __future__ import annotations

from ..sim.hosts import Host
from ..sim.rpc import Service

DEFAULT_BANDWIDTH = 10_000_000.0   # LAN-ish


class CheckpointServer(Service):
    """Stores the latest checkpoint image per job id."""

    service_name = "ckptserver"

    def __init__(self, host: Host, bandwidth: float = DEFAULT_BANDWIDTH):
        super().__init__(host)
        self.bandwidth = bandwidth
        # job_id -> (progress, nbytes); survives in memory only: a crash
        # of the checkpoint host loses images (the Shadow's copy of the
        # *progress counter* is the safety net).
        self._images: dict[str, tuple[float, int]] = {}
        self.bytes_stored = 0

    def _pay(self, nbytes: int):
        if self.bandwidth and nbytes > 0:
            return self.sim.timeout(nbytes / self.bandwidth)
        return self.sim.timeout(0.0)

    def handle_store(self, ctx, job_id: str, progress: float,
                     nbytes: int = 0):
        yield self._pay(nbytes)
        old = self._images.get(job_id)
        if old is None or progress >= old[0]:
            self._images[job_id] = (progress, nbytes)
        self.bytes_stored += nbytes
        return True

    def handle_fetch(self, ctx, job_id: str):
        image = self._images.get(job_id)
        if image is None:
            return None
        progress, nbytes = image
        yield self._pay(nbytes)
        return progress

    def stored_progress(self, job_id: str):
        image = self._images.get(job_id)
        return None if image is None else image[0]
