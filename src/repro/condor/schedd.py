"""The Condor Schedd: the pool executor over a job queue.

This is the "Scheduler" box of the paper's figures.  Its jobs live in a
:class:`~repro.condor.queue.JobQueue` -- the agent's own, shared with
the GridManager, or one of its own for a pool-side Schedd -- which keeps
them on the submit machine's disk (a crash of the submit machine loses
nothing -- §4.2).  The Schedd:

* advertises a submitter ad to one or more collectors (more than one =
  Condor *flocking*, the §7 baseline);
* hands idle vanilla/standard jobs to the Negotiator for matchmaking and
  runs claimed jobs through a Shadow per job;
* reschedules vacated jobs, resuming standard-universe jobs from their
  last checkpoint;
* exposes ``submit/status/remove/hold/release`` -- the local-resource-
  manager look and feel the paper insists on preserving (§4.1).

Grid-universe jobs in the same queue are the GridManager's
(:mod:`repro.core`), not this executor's.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..classads import ClassAd, symmetric_match
from ..sim.errors import RPCError
from ..sim.fastcopy import FrozenDict
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from ..sim.stats import fold
from .jobs import (
    COMPLETED,
    CondorJob,
    HELD,
    IDLE,
    MATCHED,
    REMOVED,
    RUNNING,
    job_ad,
)
from .queue import JobQueue, job_number
from .shadow import Shadow

fold("schedd", "claim_reuse", "schedd.claims_reused")


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
        queue: Optional[JobQueue] = None,
    ):
        super().__init__(host, name="schedd")
        self.schedd_name = name or f"schedd@{host.name}"
        self._component = f"schedd:{self.schedd_name}"     # trace records
        # The owning agent's queue; a pool-side schedd with no user
        # behind it keeps its own (no user log, no notifications).
        self.queue = queue or JobQueue(host, self.schedd_name, (CondorJob,))
        self.collector = collector
        self.flock_to = list(flock_to or [])
        self.credential = credential
        self.claim_reuse = claim_reuse
        # A lazy priority heap of (-prio, submit_time, seq, id) entries
        # over the idle jobs, used by the claim-reuse fast path; stale
        # entries are skipped at pop time.
        self._idle_heap: list[tuple[int, float, int, str]] = []
        self._idle_seq = itertools.count()
        # job id -> (-JobPrio, submit time, job number), taken when the
        # job last became idle: the order it is offered to the negotiator
        self._idle_order: dict[str, tuple[int, float, int]] = {}
        # startd name -> (host, machine ad) for claims we may reuse
        self._claim_ads: dict[str, tuple[str, ClassAd]] = {}
        for job in self.queue.attach(self, CondorJob.UNIVERSES):
            self.moved(job, None)
        self.shadows: dict[str, Shadow] = {}
        self.vacate_hooks: list[Callable[[CondorJob], None]] = []
        if collector is not None:
            self.spawn(self._advertise_loop(), name="schedd-advertise")

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(self._component, event, **details)

    def _job(self, job_id: str) -> Optional[CondorJob]:
        """The pool job `job_id` of the queue, for the user's calls (a
        grid job of a shared queue is not this executor's): or None."""
        job = self.queue.jobs.get(job_id)
        return job if isinstance(job, CondorJob) else None

    # -- the queue's callback -------------------------------------------------------
    def moved(self, job: CondorJob, was: Optional[str]) -> None:
        """`job` was just written (`was`: its state before, None when it
        entered the queue): keep the ``schedd.running`` gauge and the
        idle order in step."""
        if (was == RUNNING) != (job.state == RUNNING):
            self.sim.metrics.gauge("schedd.running").inc(
                1 if job.state == RUNNING else -1)
        if job.state == IDLE and was != IDLE:
            self._push_idle(job)

    def _push_idle(self, job: CondorJob) -> None:
        prio = job.ad.get("JobPrio", 0)
        neg_prio = -prio if isinstance(prio, int) else 0
        self._idle_order[job.job_id] = (neg_prio, job.submit_time,
                                        job_number(job.job_id))
        heapq.heappush(self._idle_heap, (neg_prio, job.submit_time,
                                         next(self._idle_seq), job.job_id))

    def _pop_reusable(self, machine_ad: ClassAd) -> Optional[CondorJob]:
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
            job = self.queue.jobs.get(job_id)
            if (job is None or job.state != IDLE
                    or self._idle_order[job_id][0] != neg_prio
                    or job_id in seen):
                continue    # stale or duplicate entry
            seen.add(job_id)
            if symmetric_match(job.ad, machine_ad):
                chosen = job
                break
            buffer.append(entry)
        for entry in buffer:
            heapq.heappush(self._idle_heap, entry)
        return chosen

    # -- submission / local API ---------------------------------------------------
    def submit(self, job: CondorJob) -> str:
        job.ad = job.ad.sealed()    # the queue's ad, not the submitter's
        self.queue.submit(job, universe=job.universe)
        self.sim.metrics.counter("schedd.jobs").inc(label="submitted")
        return job.job_id

    def submit_simple(self, owner: str, runtime: float,
                      universe: str = "vanilla",
                      requirements: str = "true", rank: str = "0",
                      **ad_extra) -> str:
        job = CondorJob(
            job_id=self.queue.new_id(),
            ad=job_ad(owner, requirements=requirements, rank=rank,
                      **ad_extra),
            runtime=runtime,
            universe=universe,
        )
        return self.submit(job)

    def status(self, job_id: str) -> CondorJob:
        """The queue record itself (``agent.status`` is the snapshot)."""
        return self.queue.jobs[job_id]

    def remove(self, job_id: str) -> bool:
        job = self._job(job_id)
        if job is None or job.is_terminal:
            return False
        if job.state == RUNNING:
            # condor_rm: the slot stops computing for a job nobody wants
            self.spawn(self._send_vacate(job), name="rm:" + job_id)
        self.queue.transition(job, REMOVED, "removed")
        return True

    def hold(self, job_id: str, reason: str = "") -> bool:
        job = self._job(job_id)
        if job is None or job.state != IDLE:
            return False
        job.hold_reason = reason
        self.queue.transition(job, HELD, "held", reason=reason)
        return True

    def release(self, job_id: str) -> bool:
        job = self._job(job_id)
        if job is None or job.state != HELD:
            return False
        self.queue.transition(job, IDLE, "released")
        return True

    def vacate_job(self, job_id: str) -> bool:
        """Migrate a running job: vacate its slot (final checkpoint goes
        out) and let the next negotiation cycle place it elsewhere --
        the §5 "migrates the job to another location if requested"."""
        job = self._job(job_id)
        if job is None or job.state != RUNNING or not job.matched_host:
            return False
        self._trace("vacate_requested", job=job_id,
                    startd=job.matched_to)
        self.spawn(self._send_vacate(job), name=f"vacate:{job_id}")
        return True

    def _send_vacate(self, job: CondorJob):
        try:
            yield from call(self.host, job.matched_host,
                            f"startd:{job.matched_to}", "vacate",
                            credential=self.credential)
        except RPCError:
            pass    # slot unreachable: the shadow lease handles it

    # -- RPC handlers (negotiator-facing) ----------------------------------------
    def handle_get_idle_jobs(self, ctx) -> FrozenDict:
        """``{job_id: sealed ad}`` of every idle job, in the order they
        negotiate: higher JobPrio first (condor_prio), FIFO by submit
        time within, queue order (the job number) last (only pool jobs
        are ever IDLE)."""
        jobs = self.queue.jobs
        return FrozenDict(
            (job_id, jobs[job_id].ad) for job_id in sorted(
                self.queue.ids_in(IDLE), key=self._idle_order.__getitem__))

    def set_job_prio(self, job_id: str, prio: int) -> bool:
        """condor_prio: reorder this queue's idle jobs."""
        job = self._job(job_id)
        if job is None:
            return False
        ad = job.ad.copy()
        ad["JobPrio"] = prio
        job.ad = ad.seal()
        if job.state == IDLE:
            self._push_idle(job)    # the new priority orders reuse
        self.queue.persist(job, frozen=True)
        return True

    def handle_matched(self, ctx, job_id: str, startd_name: str,
                       startd_host: str,
                       startd_ad: Optional[ClassAd] = None):
        """The negotiator found us a machine: claim and activate it."""
        job = self.queue.jobs.get(job_id)
        if job is None or job.state != IDLE:
            return False
        job.matched_to = startd_name
        job.matched_host = startd_host
        self.queue.transition(job, MATCHED)
        ok = yield from self._claim_and_start(job, startd_name, startd_host)
        if ok and self.claim_reuse and startd_ad is not None:
            self._claim_ads[startd_name] = (startd_host, startd_ad)
        if not ok and job.state == MATCHED:
            job.matched_to = ""
            self.queue.transition(job, IDLE)
        return ok

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
            shadow.crash("shadow done")
            self.shadows.pop(job.job_id, None)
            return False
        if job.state != MATCHED:
            # vacated or removed meanwhile: a removed job's slot must stop
            if job.state == REMOVED:
                self.spawn(self._send_vacate(job), name="rm:" + job.job_id)
            return True
        if job.start_time is None:
            job.start_time = self.sim.now
        self.queue.transition(job, RUNNING, "execute", resource=startd_name)
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
        self.queue.transition(job, MATCHED)
        self._trace("claim_reuse", job=job.job_id, startd=startd_name)
        ok = yield from self._activate(job, startd_name, startd_host)
        if not ok:
            # the claim is gone (timed out or lost); back to negotiation
            self._claim_ads.pop(startd_name, None)
            if job.state == MATCHED:
                job.matched_to = ""
                self.queue.transition(job, IDLE)

    # -- shadow callbacks -----------------------------------------------------------
    def _job_exited(self, job_id: str, code: int) -> None:
        job = self.queue.jobs.get(job_id)
        shadow = self.shadows.pop(job_id, None)
        if job is None or job.is_terminal:
            return
        self.sim.metrics.counter("schedd.jobs").inc(label="completed")
        job.exit_code = code
        job.total_goodput = job.runtime
        if shadow is not None:
            job.remote_syscalls += shadow.syscall_count
        self.queue.transition(job, COMPLETED, "terminate", exit_code=code)
        if self.claim_reuse and job.matched_to in self._claim_ads:
            self.spawn(self._reuse_claim(job.matched_to),
                       name=f"claim-reuse:{job.matched_to}")

    def _job_vacated(self, job_id: str, checkpoint: float) -> None:
        job = self.queue.jobs.get(job_id)
        shadow = self.shadows.pop(job_id, None)
        if job is None or job.is_terminal:
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
        self.queue.transition(job, IDLE, "evicted", checkpoint=job.progress)
        for hook in self.vacate_hooks:
            hook(job)

    # -- advertising ------------------------------------------------------------
    def _submitter_ad(self) -> ClassAd:
        return ClassAd({"Name": self.schedd_name,
                        "ScheddHost": self.host.name,
                        "IdleJobs": len(self.queue.ids_in(IDLE))}).seal()

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
