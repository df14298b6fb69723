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

from typing import Any, Callable, Optional

from ..classads import ClassAd
from ..sim.errors import Interrupt, RPCError
from ..sim.hosts import Host
from ..sim.rpc import Service, call, notify

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
    ad = ClassAd()
    ad["Name"] = name
    ad["Arch"] = arch
    ad["OpSys"] = opsys
    ad["Memory"] = memory
    ad["Disk"] = disk
    ad["Mips"] = mips
    ad["Site"] = site
    ad["GlideIn"] = glidein
    ad.set_expression("Requirements", requirements)
    ad.set_expression("Rank", rank)
    for key, value in extra.items():
        ad[key] = value
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
        self.startd.syscalls_issued += 1
        result = yield from call(
            self.host, self.jobdesc["shadow_host"],
            self.jobdesc["shadow_service"], "syscall",
            op=op, nbytes=nbytes, payload=payload)
        return result


class Startd(Service):
    """One slot; service name ``startd:<name>``."""

    ADVERTISE_INTERVAL = 30.0
    CHECKPOINT_INTERVAL = 60.0
    # How long a held (reusable) claim may sit inactive before the
    # startd unilaterally releases it -- liveness if the claiming
    # schedd crashes between jobs.
    CLAIM_REUSE_TIMEOUT = 120.0

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
        self.ad = ad if ad is not None else machine_ad(
            name, site=host.site, glidein=glidein)
        self.glidein = glidein
        self.idle_timeout = idle_timeout
        self.credential = credential
        self.state = UNCLAIMED
        self.claimed_by: Optional[dict] = None
        self._starter = None
        self._idle_since = self.sim.now
        self.stopped = self.sim.event(name=f"startd-stop:{name}")
        self.jobs_run = 0
        self.current_job_id = ""
        self.syscalls_issued = 0
        self.busy_time = 0.0
        self.claims_held = 0
        # bumped on every claim-state transition so a stale watchdog
        # never kills a claim that has since been reactivated
        self._claim_epoch = 0
        self._procs = [host.spawn(self._advertise_loop(),
                                  name=f"startd:{name}")]

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"startd:{self.startd_name}", event, **details)

    # -- advertising ------------------------------------------------------------
    def _current_ad(self) -> ClassAd:
        ad = self.ad.copy()
        ad["State"] = self.state
        ad["StartdHost"] = self.host.name
        return ad.seal()

    def _advertise_loop(self):
        while True:
            try:
                yield from call(self.host, self.collector, "collector",
                                "advertise", credential=self.credential,
                                adtype="startd", ad=self._current_ad(),
                                ttl=self.ADVERTISE_INTERVAL * 3)
            except RPCError:
                pass
            if self.idle_timeout is not None and self.state == UNCLAIMED \
                    and self.sim.now - self._idle_since >= self.idle_timeout:
                yield from self._graceful_shutdown("idle timeout")
                return
            yield self.sim.timeout(self.ADVERTISE_INTERVAL)

    def _graceful_shutdown(self, reason: str):
        self._trace("shutdown", reason=reason)
        try:
            yield from call(self.host, self.collector, "collector",
                            "invalidate", credential=self.credential,
                            adtype="startd", name=self.startd_name)
        except RPCError:
            pass
        self.shutdown()
        if not self.stopped.triggered and not self.stopped._scheduled:
            self.stopped.succeed(reason)

    def handle_retire(self, ctx) -> bool:
        """Factory-initiated early scale-down: an unclaimed glidein runs
        the same graceful shutdown as its idle timeout.  Claimed or busy
        slots refuse -- the factory only reaps idle capacity."""
        if not self.glidein or self.state != UNCLAIMED:
            return False
        self._procs.append(self.host.spawn(
            self._graceful_shutdown("factory retire"),
            name=f"retire:{self.startd_name}"))
        return True

    # -- claim protocol -----------------------------------------------------------
    def handle_request_claim(self, ctx, schedd_host: str, job_id: str,
                             shadow_service: str,
                             keep_claim: bool = False) -> bool:
        if self.state != UNCLAIMED:
            return False
        self.state = CLAIMED
        self._claim_epoch += 1
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
        # reuse timeout and re-claimed by another schedd must not be
        # hijacked by the original holder's late activate
        if ctx is not None and \
                self.claimed_by.get("schedd_host") != ctx.caller_host:
            return False
        self.state = BUSY
        self._claim_epoch += 1
        self.sim.metrics.gauge("startd.busy_slots").inc()
        self.sim.metrics.counter("startd.jobs_run").inc()
        desc = dict(self.claimed_by)
        desc.update(jobdesc)
        self.current_job_id = desc.get("job_id", "")
        self._starter = self.host.spawn(
            self._run_starter(desc), name=f"starter:{self.startd_name}")
        self._procs.append(self._starter)
        return True

    def handle_release_claim(self, ctx) -> bool:
        if self.state == BUSY and self._starter is not None:
            self._starter.interrupt(cause="vacate")
        self._release()
        return True

    def handle_vacate(self, ctx) -> bool:
        # One vacate per run: a second (condor_rm on the heels of a
        # migration request) would land inside the starter's own vacate
        # handler and kill it before it hands the slot back.
        starter, self._starter = self._starter, None
        if starter is not None:
            starter.interrupt(cause="vacate")
        return starter is not None

    def _release(self) -> None:
        if self.state == BUSY:
            self.sim.metrics.gauge("startd.busy_slots").dec()
        self.state = UNCLAIMED
        self._claim_epoch += 1
        self.claimed_by = None
        self._starter = None
        self.current_job_id = ""
        self._idle_since = self.sim.now

    def _hold_claim(self) -> None:
        """Job done, claim kept: Busy -> Claimed, awaiting reactivation."""
        if self.state == BUSY:
            self.sim.metrics.gauge("startd.busy_slots").dec()
        self.state = CLAIMED
        self._claim_epoch += 1
        self._starter = None
        self.current_job_id = ""
        self._idle_since = self.sim.now
        self.claims_held += 1
        holder = (self.claimed_by or {}).get("schedd_host", "")
        self._trace("claim_held", by=holder)
        proc = self.host.spawn(self._claim_watchdog(self._claim_epoch),
                               name=f"claim-watchdog:{self.startd_name}")
        self._procs.append(proc)

    def _claim_watchdog(self, epoch: int):
        yield self.sim.timeout(self.CLAIM_REUSE_TIMEOUT)
        if self.state == CLAIMED and self._claim_epoch == epoch:
            self._trace("claim_timeout")
            self.sim.metrics.counter("startd.claim_timeouts").inc()
            self._release()

    # -- the starter -----------------------------------------------------------
    def _run_starter(self, desc: dict):
        """Run one job: tick work, checkpoint, serve vacates."""
        self.jobs_run += 1
        shadow = (desc["shadow_host"], desc["shadow_service"])
        runtime = desc["runtime"]
        standard = desc.get("universe") == "standard"
        progress = desc.get("checkpoint", 0.0) if standard else 0.0
        if standard and desc.get("ckpt_server"):
            try:
                banked = yield from call(
                    self.host, desc["ckpt_server"], "ckptserver", "fetch",
                    job_id=desc["job_id"])
                if banked is not None:
                    progress = max(progress, banked)
            except RPCError:
                pass    # server gone: the shadow-banked progress stands
        io_interval = desc.get("io_interval", 0.0)
        started = self.sim.now
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
                body = self.sim.spawn(
                    program(WorkerContext(self, desc)),
                    name=f"app:{desc['job_id']}", host=self.host)
                beat = self.host.spawn(
                    self._heartbeat_loop(shadow),
                    name=f"heartbeat:{desc['job_id']}")
                # children die with the startd (hard kill of _procs)
                self._procs.append(body)
                self._procs.append(beat)
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
                            shadow, progress if standard else 0.0,
                            desc=desc if standard else None)
                code = 0
        except Interrupt:
            # Vacate: final checkpoint (standard), then hand the slot back.
            if body is not None:
                body.kill(cause="vacate")
            if beat is not None:
                beat.kill(cause="vacate")
            self.busy_time += self.sim.now - started
            yield from self._send_checkpoint(
                shadow, progress if standard else 0.0, final=True,
                desc=desc if standard else None)
            notify(self.host, shadow[0], shadow[1], "vacated",
                   progress=progress if standard else 0.0)
            self._trace("job_vacated", job=desc["job_id"],
                        progress=progress)
            self._release()
            return
        except Exception as exc:  # noqa: BLE001 - the application failed
            if beat is not None:
                beat.kill(cause="job failed")
            self.busy_time += self.sim.now - started
            self._trace("job_failed", job=desc["job_id"], error=str(exc))
            # Hold the claim *before* reporting the exit: the schedd
            # reacts to job_exit instantly, and its reactivation must
            # find the slot Claimed, not still Busy under this starter.
            held = False
            if desc.get("keep_claim") and self.state == BUSY:
                self._hold_claim()
                held = True
            try:
                yield from call(self.host, shadow[0], shadow[1],
                                "job_exit", code=1)
            except RPCError:
                notify(self.host, shadow[0], shadow[1], "job_exit", code=1)
            except Interrupt:
                pass   # released/vacated mid-report; release below
            if not held:
                self._release()
            return
        self.busy_time += self.sim.now - started
        # Hold the claim *before* reporting the exit: the schedd reacts
        # to job_exit the instant it arrives, and its reactivation RPC
        # must find the slot Claimed -- were the hold deferred until
        # after the reply round-trip, every reuse would race it and
        # fall back to negotiation.  Once held, _starter is cleared, so
        # no vacate/release can interrupt the report below.
        held = False
        if desc.get("keep_claim") and self.state == BUSY:
            self._hold_claim()
            held = True
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
        self._trace("job_done", job=desc["job_id"])
        if not held:
            self._release()

    def _heartbeat_loop(self, shadow):
        """Keep the Shadow's lease alive while an application body runs."""
        while True:
            yield self.sim.timeout(self.CHECKPOINT_INTERVAL)
            yield from self._send_checkpoint(shadow, 0.0)

    def _send_checkpoint(self, shadow, progress: float,
                         final: bool = False, interval: float = 0.0,
                         desc: Optional[dict] = None):
        """Checkpoint + heartbeat.

        With a site-local checkpoint server configured, the (large)
        image goes there at LAN speed and only a small heartbeat crosses
        the WAN to the Shadow; otherwise the image ships to the Shadow
        directly ("the originating location"), pausing the job for the
        transfer (paper §5).
        """
        nbytes = (desc or {}).get("ckpt_bytes", 0)
        ckpt_server = (desc or {}).get("ckpt_server", "")
        shadow_bytes = nbytes
        if nbytes and ckpt_server:
            try:
                yield from call(self.host, ckpt_server, "ckptserver",
                                "store",
                                job_id=(desc or {}).get("job_id", "?"),
                                progress=progress, nbytes=nbytes)
                shadow_bytes = 0    # only the heartbeat crosses the WAN
            except RPCError:
                pass                # fall through: ship to the shadow
        try:
            yield from call(self.host, shadow[0], shadow[1], "checkpoint",
                            progress=progress, final=final,
                            interval=interval, nbytes=shadow_bytes)
        except RPCError:
            pass   # heartbeat missed; the lease machinery covers us

    def _remote_io(self, shadow, desc: dict):
        self.syscalls_issued += 1
        try:
            yield from call(self.host, shadow[0], shadow[1], "syscall",
                            op="rw", nbytes=desc.get("io_bytes", 0),
                            payload=None)
        except RPCError:
            pass
