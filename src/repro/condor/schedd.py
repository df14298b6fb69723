"""The Condor Schedd: the persistent job queue and claim machinery.

This is the "Scheduler" box of the paper's figures.  It:

* keeps every job in a write-ahead queue on the submit machine's disk
  (crash of the submit machine loses nothing -- §4.2);
* advertises a submitter ad to one or more collectors (more than one =
  Condor *flocking*, the §7 baseline);
* hands idle vanilla/standard jobs to the Negotiator for matchmaking and
  runs claimed jobs through a Shadow per job;
* reschedules vacated jobs, resuming standard-universe jobs from their
  last checkpoint;
* exposes ``submit/status/remove/hold/release`` -- the local-resource-
  manager look and feel the paper insists on preserving (§4.1).

Grid-universe jobs are *not* handled here: the Condor-G core
(:mod:`repro.core`) plugs its GridManager in on top of this queue.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..classads import ClassAd, symmetric_match
from ..sim.errors import RPCError
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from ..states import POOL_EDGES, check_edge, is_terminal
from .jobs import (
    COMPLETED,
    CondorJob,
    HELD,
    IDLE,
    MATCHED,
    REMOVED,
    RUNNING,
)
from .shadow import Shadow

QUEUE_NS = "schedd-queue"
AD_NS = "schedd-queue-ad"


def _job_prio(job: CondorJob) -> int:
    value = job.ad.get("JobPrio", 0)
    return value if isinstance(value, int) else 0


class Schedd(Service):
    service_name = "schedd"

    ADVERTISE_INTERVAL = 30.0

    def __init__(
        self,
        host: Host,
        name: str = "",
        collector: Optional[str] = None,
        flock_to: Optional[list[str]] = None,
        credential=None,
        claim_reuse: bool = False,
        userlog=None,
        notifier=None,
    ):
        super().__init__(host, name="schedd")
        # The owning agent's user log file and notification channel
        # (§4.1); a pool-side schedd with no user behind it has neither.
        self.userlog = userlog
        self.notifier = notifier
        self.schedd_name = name or f"schedd@{host.name}"
        self.collector = collector
        self.flock_to = list(flock_to or [])
        self.credential = credential
        self.claim_reuse = claim_reuse
        self.jobs: dict[str, CondorJob] = {}
        self._ids = itertools.count(1)
        # Idle-job bookkeeping: a membership set (O(1) IdleJobs counts)
        # plus a lazy priority heap of (-prio, submit_time, seq, id)
        # entries used by the claim-reuse fast path; stale entries are
        # skipped at pop time.
        self._idle_ids: set[str] = set()
        self._idle_heap: list[tuple[int, float, int, str]] = []
        self._idle_seq = itertools.count()
        # startd name -> (host, machine ad) for claims we may reuse
        self._claim_ads: dict[str, tuple[str, ClassAd]] = {}
        self.claims_reused = 0
        self._queue_store = host.stable.namespace(QUEUE_NS)
        self._ad_store = host.stable.namespace(AD_NS)
        self._recover_queue()
        self.shadows: dict[str, Shadow] = {}
        self.vacate_hooks: list[Callable[[CondorJob], None]] = []
        if collector is not None:
            host.spawn(self._advertise_loop(), name="schedd-advertise")

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"schedd:{self.schedd_name}", event, **details)

    # -- persistence ----------------------------------------------------------
    def _persist(self, job: CondorJob) -> None:
        """Rewrite the job's progress record (the ad is rendered to its
        own file by `submit` and `set_job_prio`, not per state change)."""
        self._queue_store.put(job.job_id, job.progress_record())

    def _persist_ad(self, job: CondorJob) -> None:
        self._ad_store.put(job.job_id, str(job.ad))

    def _recover_queue(self) -> None:
        for key, record in self._queue_store.items():
            job = CondorJob.from_record(
                {**record, "ad": self._ad_store.get(key)})
            self.jobs[job.job_id] = job
            self._sync_idle(job)
            if record["state"] == RUNNING:
                # the crash took its shadow: say so once, on disk
                self._persist(job)
                self._log(job, "evicted", checkpoint=job.progress)

    # -- the one writer of CondorJob.state ---------------------------------------
    def _transition(self, job: CondorJob, state: str, event: str = "",
                    **details) -> None:
        """Move `job` along a declared edge of ``POOL_EDGES`` (anything
        else raises ``IllegalTransition`` on the spot), keep the idle
        index and the ``schedd.running`` gauge in step, persist, and
        write `event` to the user log.  Set the other fields the step
        changes first."""
        check_edge(POOL_EDGES, job.job_id, job.state, state)
        if RUNNING in (job.state, state):
            self.sim.metrics.gauge("schedd.running").inc(
                1 if state == RUNNING else -1)
        released = job.state == HELD
        if released:
            job.hold_reason = ""
        job.state = state
        if is_terminal(state):
            job.end_time = self.sim.now
        self._sync_idle(job)
        self._persist(job)
        if released and event != "released":
            self._log(job, "released")
        if event:
            self._log(job, event, **details)
        if state == COMPLETED and self.notifier is not None:
            self.notifier.fire(job.job_id, "terminate",
                               exit_code=job.exit_code, reason="")

    def _log(self, job: CondorJob, event: str, **details) -> None:
        if self.userlog is not None:
            self.userlog.add(self.sim.now, job.job_id, event, **details)

    # -- idle-job index -------------------------------------------------------
    def _sync_idle(self, job: CondorJob) -> None:
        """Keep the idle membership set and lazy heap in step with
        ``job.state``; call after every state transition."""
        eligible = (job.state == IDLE
                    and job.universe in ("vanilla", "standard"))
        if eligible:
            if job.job_id not in self._idle_ids:
                self._idle_ids.add(job.job_id)
                heapq.heappush(self._idle_heap,
                               (-_job_prio(job), job.submit_time,
                                next(self._idle_seq), job.job_id))
        else:
            self._idle_ids.discard(job.job_id)

    def _pop_reusable(self, machine_ad: Optional[ClassAd]
                      ) -> Optional[CondorJob]:
        """Highest-priority idle job compatible with ``machine_ad``.

        Pops lazily: entries invalidated by state or priority changes
        are dropped; compatible-but-not-chosen entries go back on the
        heap untouched.
        """
        seen: set[str] = set()
        buffer: list[tuple[int, float, int, str]] = []
        chosen: Optional[CondorJob] = None
        while self._idle_heap:
            entry = heapq.heappop(self._idle_heap)
            neg_prio, _submit_time, _seq, job_id = entry
            job = self.jobs.get(job_id)
            if (job is None or job_id not in self._idle_ids
                    or job.state != IDLE
                    or -_job_prio(job) != neg_prio
                    or job_id in seen):
                continue    # stale or duplicate entry
            seen.add(job_id)
            if machine_ad is None or symmetric_match(
                    job.ad, machine_ad, now=self.sim.now):
                chosen = job
                break
            buffer.append(entry)
        for entry in buffer:
            heapq.heappush(self._idle_heap, entry)
        return chosen

    # -- submission / local API ---------------------------------------------------
    def submit(self, job: CondorJob) -> str:
        job.submit_time = self.sim.now
        job.ad = job.ad.sealed()    # the queue's ad, not the submitter's
        self.jobs[job.job_id] = job
        self._sync_idle(job)
        self._persist_ad(job)
        self._persist(job)
        self.sim.metrics.counter("schedd.jobs").inc(label="submitted")
        self._trace("submit", job=job.job_id, universe=job.universe,
                    owner=job.owner)
        self._log(job, "queued", universe=job.universe)
        return job.job_id

    def submit_simple(self, owner: str, runtime: float,
                      universe: str = "vanilla",
                      requirements: str = "true", rank: str = "0",
                      **ad_extra) -> str:
        from .jobs import job_ad, next_cluster_id

        job = CondorJob(
            job_id=next_cluster_id(),
            ad=job_ad(owner, requirements=requirements, rank=rank,
                      **ad_extra),
            runtime=runtime,
            universe=universe,
        )
        return self.submit(job)

    def status(self, job_id: str) -> CondorJob:
        return self.jobs[job_id]

    def remove(self, job_id: str) -> bool:
        job = self.jobs.get(job_id)
        if job is None or job.state in (COMPLETED, REMOVED):
            return False
        if job.state == RUNNING:
            # condor_rm: the slot stops computing for a job nobody wants
            self.host.spawn(self._send_vacate(job), name="rm:" + job_id)
        self._transition(job, REMOVED, "removed")
        return True

    def hold(self, job_id: str, reason: str = "") -> bool:
        job = self.jobs.get(job_id)
        if job is None or job.state not in (IDLE,):
            return False
        job.hold_reason = reason
        self._transition(job, HELD, "held", reason=reason)
        self._trace("hold", job=job_id, reason=reason)
        return True

    def release(self, job_id: str) -> bool:
        job = self.jobs.get(job_id)
        if job is None or job.state != HELD:
            return False
        self._transition(job, IDLE, "released")
        self._trace("release", job=job_id)
        return True

    def vacate_job(self, job_id: str) -> bool:
        """Migrate a running job: vacate its slot (final checkpoint goes
        out) and let the next negotiation cycle place it elsewhere --
        the §5 "migrates the job to another location if requested"."""
        job = self.jobs.get(job_id)
        if job is None or job.state != RUNNING or not job.matched_host:
            return False
        self._trace("vacate_requested", job=job_id,
                    startd=job.matched_to)
        self.host.spawn(self._send_vacate(job),
                        name=f"vacate:{job_id}")
        return True

    def _send_vacate(self, job: CondorJob):
        try:
            yield from call(self.host, job.matched_host,
                            f"startd:{job.matched_to}", "vacate",
                            credential=self.credential)
        except RPCError:
            pass    # slot unreachable: the shadow lease handles it

    def idle_jobs(self) -> list[CondorJob]:
        return [j for j in self.jobs.values()
                if j.state == IDLE and j.universe in ("vanilla", "standard")]

    def idle_count(self) -> int:
        """O(1) idle-job count (the factory's queue-depth signal)."""
        return len(self._idle_ids)

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for job in self.jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return out

    # -- RPC handlers (negotiator-facing) ----------------------------------------
    def handle_get_idle_jobs(self, ctx) -> list[dict]:
        # higher JobPrio negotiates first (condor_prio), FIFO within
        return [{"job_id": j.job_id, "ad": j.ad}
                for j in sorted(
                    self.idle_jobs(),
                    key=lambda j: (-_job_prio(j), j.submit_time))]

    def set_job_prio(self, job_id: str, prio: int) -> bool:
        """condor_prio: reorder this queue's idle jobs."""
        job = self.jobs.get(job_id)
        if job is None:
            return False
        ad = job.ad.copy()
        ad["JobPrio"] = prio
        job.ad = ad.seal()
        if job.job_id in self._idle_ids:
            # refresh the heap entry so the new priority orders reuse
            self._idle_ids.discard(job.job_id)
            self._sync_idle(job)
        self._persist_ad(job)
        return True

    def handle_matched(self, ctx, job_id: str, startd_name: str,
                       startd_host: str, startd_ad=None):
        """The negotiator found us a machine: claim and activate it."""
        job = self.jobs.get(job_id)
        if job is None or job.state != IDLE:
            return False
        job.matched_to = startd_name
        job.matched_host = startd_host
        self._transition(job, MATCHED)
        ok = yield from self._claim_and_start(job, startd_name, startd_host)
        if ok and self.claim_reuse and startd_ad is not None:
            self._claim_ads[startd_name] = (startd_host, startd_ad)
        if not ok and job.state == MATCHED:
            job.matched_to = ""
            self._transition(job, IDLE)
        return ok

    def handle_submit(self, ctx, owner: str, runtime: float,
                      universe: str = "vanilla",
                      requirements: str = "true") -> str:
        return self.submit_simple(owner, runtime, universe=universe,
                                  requirements=requirements)

    def handle_query(self, ctx, job_id: str) -> dict:
        return self.jobs[job_id].queue_record()

    # -- claim + shadow ------------------------------------------------------------
    def _claim_and_start(self, job: CondorJob, startd_name: str,
                         startd_host: str):
        shadow_service = f"shadow:{job.job_id}"
        try:
            claimed = yield from call(
                self.host, startd_host, f"startd:{startd_name}",
                "request_claim", credential=self.credential,
                schedd_host=self.host.name, job_id=job.job_id,
                shadow_service=shadow_service,
                keep_claim=self.claim_reuse)
        except RPCError:
            claimed = False
        if not claimed:
            self._trace("claim_refused", job=job.job_id, startd=startd_name)
            return False
        ok = yield from self._activate(job, startd_name, startd_host)
        return ok

    def _activate(self, job: CondorJob, startd_name: str,
                  startd_host: str):
        """Spin up a Shadow and activate an already-held claim.

        Shared by the negotiated path (right after ``request_claim``)
        and the claim-reuse fast path (no new claim round-trip).
        """
        shadow = Shadow(self.host, job.job_id,
                        on_exit=self._job_exited,
                        on_vacated=self._job_vacated,
                        syscall_handler=job.syscall_handler)
        self.shadows[job.job_id] = shadow
        jobdesc = {
            "job_id": job.job_id,
            "runtime": job.runtime,
            "universe": job.universe,
            "checkpoint": job.progress,
            "io_interval": job.io_interval,
            "io_bytes": job.io_bytes,
            "ckpt_bytes": job.ckpt_bytes,
            "ckpt_server": job.ckpt_server,
            "program": job.program,
            # refresh the claim's shadow coordinates: on reuse the
            # startd's stored claim still points at the previous job's
            # shadow
            "shadow_host": self.host.name,
            "shadow_service": f"shadow:{job.job_id}",
        }
        try:
            activated = yield from call(
                self.host, startd_host, f"startd:{startd_name}",
                "activate_claim", credential=self.credential,
                jobdesc=jobdesc)
        except RPCError:
            activated = False
        if not activated:
            shadow.finished = True
            shadow._teardown()
            self.shadows.pop(job.job_id, None)
            return False
        if job.state != MATCHED:
            # vacated or removed meanwhile: a removed job's slot must stop
            if job.state == REMOVED:
                self.host.spawn(self._send_vacate(job),
                                name="rm:" + job.job_id)
            return True
        if job.start_time is None:
            job.start_time = self.sim.now
        self._transition(job, RUNNING, "execute", resource=startd_name)
        self._trace("job_running", job=job.job_id, startd=startd_name)
        return True

    # -- claim reuse ---------------------------------------------------------
    def _reuse_claim(self, startd_name: str):
        """Re-match a compatible idle job onto a claim we still hold.

        Runs right after a job exit on that claim: picks the
        highest-priority idle job whose ad bilaterally matches the
        cached machine ad and activates it directly -- no negotiation
        round-trip.  With nothing to run, the claim is released so the
        machine returns to the pool.
        """
        cached = self._claim_ads.get(startd_name)
        if cached is None:
            return
        startd_host, machine_ad = cached
        job = self._pop_reusable(machine_ad)
        if job is None:
            self._claim_ads.pop(startd_name, None)
            self._trace("claim_release", startd=startd_name)
            try:
                yield from call(self.host, startd_host,
                                f"startd:{startd_name}", "release_claim",
                                credential=self.credential)
            except RPCError:
                pass    # the startd's own claim timeout covers us
            return
        job.matched_to = startd_name
        job.matched_host = startd_host
        self._transition(job, MATCHED)
        self.claims_reused += 1
        self.sim.metrics.counter("schedd.claims_reused").inc()
        self._trace("claim_reuse", job=job.job_id, startd=startd_name)
        ok = yield from self._activate(job, startd_name, startd_host)
        if not ok:
            # the claim is gone (timed out or lost); back to negotiation
            self._claim_ads.pop(startd_name, None)
            if job.state == MATCHED:
                job.matched_to = ""
                self._transition(job, IDLE)

    # -- shadow callbacks -----------------------------------------------------------
    def _job_exited(self, job_id: str, code: int) -> None:
        job = self.jobs.get(job_id)
        shadow = self.shadows.pop(job_id, None)
        if job is None or job.state in (COMPLETED, REMOVED):
            return
        self.sim.metrics.counter("schedd.jobs").inc(label="completed")
        job.exit_code = code
        job.total_goodput = job.runtime
        if shadow is not None:
            job.remote_syscalls += shadow.syscall_count
        self._transition(job, COMPLETED, "terminate", exit_code=code)
        self._trace("job_completed", job=job_id, code=code)
        if self.claim_reuse and job.matched_to in self._claim_ads:
            self.host.spawn(self._reuse_claim(job.matched_to),
                            name=f"claim-reuse:{job.matched_to}")

    def _job_vacated(self, job_id: str, checkpoint: float) -> None:
        job = self.jobs.get(job_id)
        shadow = self.shadows.pop(job_id, None)
        if job is None or job.state in (COMPLETED, REMOVED):
            return
        self.sim.metrics.counter("schedd.jobs").inc(label="vacated")
        job.restarts += 1
        if job.universe == "standard":
            job.progress = max(job.progress, checkpoint)
            job.checkpoints += 1
        else:
            job.progress = 0.0
        if shadow is not None:
            job.remote_syscalls += shadow.syscall_count
        job.matched_to = ""
        self._transition(job, IDLE, "evicted", checkpoint=job.progress)
        self._trace("job_vacated", job=job_id, checkpoint=job.progress)
        for hook in self.vacate_hooks:
            hook(job)

    # -- advertising ------------------------------------------------------------
    def _submitter_ad(self) -> ClassAd:
        ad = ClassAd()
        ad["Name"] = self.schedd_name
        ad["ScheddHost"] = self.host.name
        ad["IdleJobs"] = len(self._idle_ids)
        return ad.seal()

    def _advertise_loop(self):
        targets = [self.collector] + self.flock_to
        while True:
            for target in targets:
                try:
                    yield from call(self.host, target, "collector",
                                    "advertise",
                                    credential=self.credential,
                                    adtype="submitter",
                                    ad=self._submitter_ad(),
                                    ttl=self.ADVERTISE_INTERVAL * 3)
                except RPCError:
                    pass
            yield self.sim.timeout(self.ADVERTISE_INTERVAL)
