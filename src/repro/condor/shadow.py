"""The Condor Shadow: the submit-side half of a running job.

One shadow per running job (paper Figure 2): it receives the job's
remote system calls, stores its checkpoints, and watches its lease.  If
the starter goes silent -- glidein killed by the allocation expiring, a
remote host crash, a partition -- the lease expires and the shadow
declares the job vacated so the schedd can rematch it, resuming standard-
universe jobs from the last received checkpoint.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.hosts import Host
from ..sim.rpc import Service


class Shadow(Service):
    """Service ``shadow:<job_id>`` on the submit machine."""

    LEASE_TIMEOUT = 200.0     # > 3x the starter checkpoint interval

    def __init__(
        self,
        host: Host,
        job_id: str,
        on_exit: Callable[[str, int], None],
        on_vacated: Callable[[str, float], None],
        syscall_handler: Optional[Callable] = None,
    ):
        super().__init__(host, name=f"shadow:{job_id}")
        self.job_id = job_id
        self.on_exit = on_exit
        self.on_vacated = on_vacated
        self.syscall_handler = syscall_handler
        self.last_heartbeat = self.sim.now
        self.lease_timeout = self.LEASE_TIMEOUT
        self.last_checkpoint = 0.0
        self.syscall_count = 0
        self.call_at(self.sim.now, self._lease_watch)

    # -- handlers -----------------------------------------------------------
    def handle_checkpoint(self, ctx, progress: float, final: bool = False,
                          interval: float = 0.0) -> bool:
        """Bank a checkpoint/heartbeat.

        ``interval`` (sent with the starter's first beat) negotiates the
        lease: the shadow must tolerate at least ~3 beat periods of
        silence, or slow checkpointers get phantom-evicted.
        """
        self.last_heartbeat = self.sim.now
        if interval > 0.0:
            self.lease_timeout = max(self.lease_timeout, 3.0 * interval)
        if progress > self.last_checkpoint:
            self.last_checkpoint = progress
        return True

    def handle_syscall(self, ctx, op: str, nbytes: int = 0,
                       payload: Any = None):
        self.last_heartbeat = self.sim.now
        self.syscall_count += 1
        if self.syscall_handler is not None:
            return self.syscall_handler(op, nbytes, payload)
        return {"ok": True}

    def handle_vacated(self, ctx, progress: float = 0.0) -> bool:
        if progress > self.last_checkpoint:
            self.last_checkpoint = progress
        self._finish_vacated()
        return True

    def handle_job_exit(self, ctx, code: int) -> bool:
        self.crash("shadow done")
        self.on_exit(self.job_id, code)
        return True

    # -- lease ----------------------------------------------------------------
    def _lease_watch(self, _=None) -> None:
        """Look again in a quarter of the lease."""
        self.call_at(self.sim.now + self.lease_timeout / 4, self._lease_check)

    def _lease_check(self, _=None) -> None:
        if self.sim.now - self.last_heartbeat > self.lease_timeout:
            self.sim.trace.log(f"shadow:{self.job_id}", "lease_expired",
                               last_heartbeat=self.last_heartbeat)
            self._finish_vacated()
        else:
            self._lease_watch()

    def _finish_vacated(self) -> None:
        self.crash("shadow done")
        self.on_vacated(self.job_id, self.last_checkpoint)
