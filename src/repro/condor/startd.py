"""The Condor Startd + Starter: one execution slot and its sandbox.

A startd advertises its machine ad to the Collector, accepts claims from
schedds, and runs one job at a time through a *starter*.  The starter is
the mobile sandbox of paper §5: it ticks the job's work forward, redirects
the job's I/O to the submit-side Shadow as remote system calls, sends
periodic checkpoints (standard universe), and converts a vacate into a
final checkpoint plus a clean hand-back of the claim.

GlideIn startds (``glidein=True``) are exactly this class started *by a
GRAM job* on a remote resource: they additionally shut themselves down
after a configurable idle time, "guarding against runaway daemons" (§5),
and die abruptly when the enclosing allocation's walltime expires -- at
which point the Shadow's lease timeout notices the silence.
"""

from __future__ import annotations

from typing import Any, Optional

from ..classads import ClassAd
from ..sim.errors import Interrupt, RPCError
from ..sim.hosts import Host
from ..sim.rpc import Service, call, notify
from ..sim.stats import fold
from ..states import STARTD_EDGES, check_edge

fold("startd", "claim_timeout", "startd.claim_timeouts")

UNCLAIMED = "Unclaimed"
CLAIMED = "Claimed"
BUSY = "Busy"


def machine_ad(
    name: str,
    arch: str = "INTEL",
    opsys: str = "LINUX",
    memory: int = 256,
    disk: int = 100_000,
    mips: int = 100,
    site: str = "",
    glidein: bool = False,
    requirements: str = "true",
    rank: str = "0",
    **extra: Any,
) -> ClassAd:
    ad = ClassAd({"Name": name, "Arch": arch, "OpSys": opsys,
                  "Memory": memory, "Disk": disk, "Mips": mips,
                  "Site": site, "GlideIn": glidein})
    ad.set_expression("Requirements", requirements)
    ad.set_expression("Rank", rank)
    ad.update(ClassAd(extra))
    return ad


class WorkerContext:
    """What an application-level job body (``program``) sees."""

    def __init__(self, startd: "Startd", jobdesc: dict):
        self.startd = startd
        self.sim = startd.sim
        self.host = startd.host
        self.jobdesc = jobdesc

    def syscall(self, op: str, nbytes: int = 0, payload: Any = None):
        """Remote system call served by the submit-side Shadow."""
        result = yield from call(
            self.host, self.jobdesc["shadow_host"],
            self.jobdesc["shadow_service"], "syscall",
            op=op, nbytes=nbytes, payload=payload)
        return result


class Startd(Service):
    """One slot; service name ``startd:<name>``."""

    ADVERTISE_INTERVAL = 30.0
    CHECKPOINT_INTERVAL = 60.0
    # How long a claim may sit in Claimed (never activated, or held for
    # reuse) before the startd releases it, at its next advertise:
    # liveness if the claiming schedd crashes, loses the claim reply or
    # forgets a held claim.
    CLAIM_TIMEOUT = 120.0
    state = UNCLAIMED

    def __init__(
        self,
        host: Host,
        name: str,
        collector: str,                     # collector host name
        ad: Optional[ClassAd] = None,
        glidein: bool = False,
        idle_timeout: Optional[float] = None,
        credential=None,
    ):
        super().__init__(host, name=f"startd:{name}")
        self.startd_name = name
        self.collector = collector
        # the machine's own attributes, a value: State and StartdHost
        # are added to a copy, once per (State, host) (_current_ad)
        self.ad = (ad if ad is not None else machine_ad(
            name, site=host.site, glidein=glidein)).sealed()
        self._adverts: dict[tuple[str, str], ClassAd] = {}
        self.glidein = glidein
        self.idle_timeout = idle_timeout
        self.credential = credential
        self.claimed_by: Optional[dict] = None
        self._starter = None
        self._idle_since = self.sim.now
        self.stopped = self.sim.event(name=f"startd-stop:{name}")
        self.current_job_id = ""
        # bumped by every move, so a starter that no longer owns the slot
        # never moves it
        self._claim_epoch = 0
        self.call_at(self.sim.now, self._tick)

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(self.name, event, **details)

    def _move(self, state: str) -> None:
        """The one writer (``STARTD_EDGES``).  Leaving Busy drops the
        starter; every entry into Claimed starts the claim's clock."""
        check_edge(STARTD_EDGES, self.name, self.state, state)
        if self.state == BUSY:
            self.sim.metrics.gauge("startd.busy_slots").dec()
            self._starter = None
            self.current_job_id = ""
        elif state == BUSY:
            self.sim.metrics.gauge("startd.busy_slots").inc()
        self.state = state
        self._claim_epoch += 1
        if state == UNCLAIMED:
            self.claimed_by = None
            self._idle_since = self.sim.now
        elif state == CLAIMED:
            self._claimed_at = self.sim.now

    def crash(self, cause: str = "crash") -> None:
        """Die at once (with the allocation, say): the job dies too, and
        its Shadow's lease notices the silence."""
        if self.state == BUSY:
            if self.current_job_id:
                self._trace("job_vacated", job=self.current_job_id,
                            progress=0.0)
            self._move(UNCLAIMED)
        super().crash(cause)

    # -- advertising ------------------------------------------------------------
    def _current_ad(self) -> ClassAd:
        """The sealed machine ad to advertise: built the first time the
        slot is in this State on this host, the same ad ever after."""
        key = (self.state, self.host.name)
        if key not in self._adverts:
            ad = self.ad.copy()
            ad["State"], ad["StartdHost"] = key
            self._adverts[key] = ad.seal()
        return self._adverts[key]

    def _tick(self, _=None) -> None:
        """Every ``ADVERTISE_INTERVAL``: release a claim older than
        ``CLAIM_TIMEOUT``, then advertise."""
        if self.state == CLAIMED and \
                self.sim.now - self._claimed_at >= self.CLAIM_TIMEOUT:
            self._trace("claim_timeout")
            self._move(UNCLAIMED)
        self.call_then(self.collector, "collector", "advertise",
                       self._advertised, credential=self.credential,
                       adtype="startd", ad=self._current_ad(),
                       ttl=self.ADVERTISE_INTERVAL * 3)

    def _advertised(self, _request) -> None:
        """Answered or not: a glidein idle too long leaves the pool."""
        if self.idle_timeout is not None and self.state == UNCLAIMED \
                and self.sim.now - self._idle_since >= self.idle_timeout:
            self._retire("idle timeout")
        else:
            self.call_at(self.sim.now + self.ADVERTISE_INTERVAL, self._tick)

    def _retire(self, reason: str) -> None:
        """Withdraw our ad, then stop (``stopped`` fires)."""
        self._trace("shutdown", reason=reason)
        self.call_then(self.collector, "collector", "invalidate",
                       self._stop, credential=self.credential,
                       adtype="startd", name=self.startd_name)

    def _stop(self, _request) -> None:
        self.shutdown()
        self.stopped.succeed()

    def handle_retire(self, ctx) -> bool:
        """Factory-initiated early scale-down: an unclaimed glidein runs
        the same graceful shutdown as its idle timeout.  Claimed or busy
        slots refuse -- the factory only reaps idle capacity."""
        if not self.glidein or self.state != UNCLAIMED:
            return False
        self.call_at(self.sim.now, self._retire, "factory retire")
        return True

    # -- claim protocol -----------------------------------------------------------
    def handle_request_claim(self, ctx, schedd_host: str, job_id: str,
                             shadow_service: str,
                             keep_claim: bool = False) -> bool:
        if self.state != UNCLAIMED:
            return False
        self._move(CLAIMED)
        self.claimed_by = {
            "schedd_host": schedd_host,
            "job_id": job_id,
            "shadow_host": schedd_host,
            "shadow_service": shadow_service,
            "keep_claim": keep_claim,
        }
        self._trace("claimed", by=schedd_host, job=job_id)
        return True

    def handle_activate_claim(self, ctx, jobdesc: dict) -> bool:
        if self.state != CLAIMED or self.claimed_by is None:
            return False
        # only the claim holder may activate: a claim released by the
        # claim timeout and re-claimed by another schedd must not be
        # hijacked by the original holder's late activate
        if ctx is not None and \
                self.claimed_by.get("schedd_host") != ctx.caller_host:
            return False
        self._move(BUSY)
        self.sim.metrics.counter("startd.jobs_run").inc()
        desc = dict(self.claimed_by)
        desc.update(jobdesc)
        self.current_job_id = desc.get("job_id", "")
        self._starter = self.spawn(
            self._run_starter(desc, self._claim_epoch),
            name=f"starter:{self.startd_name}")
        return True

    def handle_release_claim(self, ctx) -> bool:
        if self.state == BUSY and self._starter is not None:
            self._starter.interrupt(cause="vacate")
        if self.state != UNCLAIMED:
            self._move(UNCLAIMED)
        return True

    def handle_vacate(self, ctx) -> bool:
        # One vacate per run: a second (condor_rm on the heels of a
        # migration request) would land inside the starter's own vacate
        # handler and kill it before it hands the slot back.
        starter, self._starter = self._starter, None
        if starter is not None:
            starter.interrupt(cause="vacate")
        return starter is not None

    # -- the starter -----------------------------------------------------------
    def _run_starter(self, desc: dict, epoch: int):
        """Run one job: tick work, checkpoint, serve vacates; move the
        slot only while it is still as the activation (`epoch`) left it."""
        shadow = (desc["shadow_host"], desc["shadow_service"])
        runtime = desc["runtime"]
        standard = desc.get("universe") == "standard"
        progress = desc.get("checkpoint", 0.0) if standard else 0.0
        io_interval = desc.get("io_interval", 0.0)
        next_io = io_interval if io_interval > 0 else float("inf")
        self._trace("job_start", job=desc["job_id"], progress=progress)
        program = desc.get("program")
        body = None
        beat = None
        try:
            # First beat: negotiate the lease for our heartbeat cadence
            # (inside the try: a vacate may land as early as this).
            yield from self._send_checkpoint(
                shadow, progress if standard else 0.0,
                interval=self.CHECKPOINT_INTERVAL)
            if program is not None:
                # children die with the startd (its crash)
                body = self.spawn(program(WorkerContext(self, desc)),
                                  name=f"app:{desc['job_id']}")
                beat = self.spawn(self._heartbeat_loop(shadow),
                                  name=f"heartbeat:{desc['job_id']}")
                code = yield body
                beat.kill(cause="job finished")
                progress = runtime
                code = code if isinstance(code, int) else 0
            else:
                elapsed_since_ckpt = 0.0
                while progress < runtime:
                    tick = min(self.CHECKPOINT_INTERVAL,
                               runtime - progress, next_io)
                    yield self.sim.timeout(tick)
                    progress += tick
                    elapsed_since_ckpt += tick
                    next_io -= tick
                    if next_io <= 0:
                        yield from self._remote_io(shadow, desc)
                        next_io = io_interval
                    if progress < runtime and \
                            elapsed_since_ckpt >= self.CHECKPOINT_INTERVAL:
                        elapsed_since_ckpt = 0.0
                        yield from self._send_checkpoint(
                            shadow, progress if standard else 0.0)
                code = 0
        except Interrupt:
            # Vacate: final checkpoint (standard), then hand the slot back.
            if body is not None:
                body.kill(cause="vacate")
            if beat is not None:
                beat.kill(cause="vacate")
            yield from self._send_checkpoint(
                shadow, progress if standard else 0.0, final=True)
            notify(self.host, shadow[0], shadow[1], "vacated",
                   progress=progress if standard else 0.0)
            self._trace("job_vacated", job=desc["job_id"],
                        progress=progress)
            if self._claim_epoch == epoch:
                self._move(UNCLAIMED)
            return
        except Exception as exc:  # noqa: BLE001 - the application failed
            if beat is not None:
                beat.kill(cause="job failed")
            self._trace("job_failed", job=desc["job_id"], error=str(exc))
            code, done = 1, False
        else:
            done = True
        # Hold the claim *before* reporting the exit: the schedd reacts
        # to job_exit the instant it arrives, and its reactivation RPC
        # must find the slot Claimed -- were the hold deferred until
        # after the reply round-trip, every reuse would race it and
        # fall back to negotiation.  Once held, _starter is cleared, so
        # no vacate/release can interrupt the report below.
        if desc.get("keep_claim") and self._claim_epoch == epoch:
            self._move(CLAIMED)
            self._trace("claim_held", by=self.claimed_by["schedd_host"])
        try:
            yield from call(self.host, shadow[0], shadow[1], "job_exit",
                            code=code)
        except RPCError:
            notify(self.host, shadow[0], shadow[1], "job_exit", code=code)
        except Interrupt:
            # Released or vacated while reporting the exit.  The job
            # finished either way; do not re-send job_exit -- the
            # request usually got through and a duplicate would
            # double-complete -- just hand the slot back below.
            pass
        if done:
            self._trace("job_done", job=desc["job_id"])
        if self._claim_epoch == epoch:
            self._move(UNCLAIMED)

    def _heartbeat_loop(self, shadow):
        """Keep the Shadow's lease alive while an application body runs."""
        while True:
            yield self.sim.timeout(self.CHECKPOINT_INTERVAL)
            yield from self._send_checkpoint(shadow, 0.0)

    def _send_checkpoint(self, shadow, progress: float,
                         final: bool = False, interval: float = 0.0):
        """Checkpoint + heartbeat to the Shadow."""
        try:
            yield from call(self.host, shadow[0], shadow[1], "checkpoint",
                            progress=progress, final=final,
                            interval=interval)
        except RPCError:
            pass   # heartbeat missed; the lease machinery covers us

    def _remote_io(self, shadow, desc: dict):
        try:
            yield from call(self.host, shadow[0], shadow[1], "syscall",
                            op="rw", nbytes=desc.get("io_bytes", 0),
                            payload=None)
        except RPCError:
            pass
