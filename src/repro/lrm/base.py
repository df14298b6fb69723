"""Local resource managers: the site batch systems behind gatekeepers.

The paper's testbeds put PBS, LSF, LoadLeveler, NQE, and Condor pools
behind GRAM gatekeepers.  What matters for reproducing Condor-G's results
is their *queuing behaviour* (how long a job waits, in what order jobs
start, whether jobs can be preempted) and their *independence from the
interface machine* (§3.2: a gatekeeper crash must not kill correctly
queued or executing jobs).  Each LRM therefore runs on its own host,
separate from the gatekeeper host, and is reachable over intra-site RPC.

Job bodies are either synthetic (consume ``runtime`` simulated seconds)
or *programs*: factories returning a process generator, which is how
GlideIn daemons execute on remote resources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Optional

from ..sim.errors import Interrupt
from ..sim.fastcopy import FrozenDict, Immutable
from ..sim.hosts import Host
from ..sim.kernel import Simulator
from ..sim.rpc import Service
from ..states import JobState

# -- job model ------------------------------------------------------------------

# Module-level aliases: the enum members compare and serialize exactly
# like the string literals they replace (see repro.states).
QUEUED = JobState.QUEUED
RUNNING = JobState.RUNNING
COMPLETED = JobState.COMPLETED
FAILED = JobState.FAILED
CANCELLED = JobState.CANCELLED
PREEMPTED = JobState.PREEMPTED

TERMINAL_STATES = frozenset({COMPLETED, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobSpec(Immutable):
    """What a submitter hands to a batch system (an immutable value).

    ``program`` (if set) is a callable ``(ExecutionContext) -> generator``
    executed as the job body; otherwise the job synthetically consumes
    ``runtime`` seconds of its slot.  ``walltime`` is the site-enforced
    limit; exceeding it kills the job (paper §5: "local policy may impose
    restrictions on the running time of the job").
    """

    executable: str = "a.out"
    args: tuple = ()
    runtime: float = 1.0
    walltime: Optional[float] = None
    cpus: int = 1
    priority: int = 0
    env: FrozenDict = field(default_factory=FrozenDict)
    program: Optional[Callable[["ExecutionContext"], Generator]] = None
    requeue_on_preempt: bool = True
    checkpointable: bool = False   # resume from where preemption hit?
    exit_code: int = 0          # exit code the synthetic body will produce

    def with_env(self, **env: Any) -> "JobSpec":
        return replace(self, env={**self.env, **env})


@dataclass
class LRMJob:
    """A job instance inside a batch system."""

    local_id: str
    spec: JobSpec
    owner: str
    state: str = QUEUED
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    exit_code: Optional[int] = None
    failure_reason: str = ""
    node_index: Optional[int] = None
    preempt_count: int = 0
    remaining: Optional[float] = None   # runtime left (set on preemption)
    state_since: float = 0.0            # time of the last state transition

    def public_view(self) -> dict:
        return {
            "local_id": self.local_id,
            "state": self.state,
            "state_since": self.state_since,
            "owner": self.owner,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "exit_code": self.exit_code,
            "failure_reason": self.failure_reason,
            "preempt_count": self.preempt_count,
        }


class ExecutionContext:
    """What a running job body sees: its node, env, and I/O plumbing.

    ``read_env(name)`` re-reads the *current* value, which is how the
    GASS-redirect-file crash recovery works (§4.2: "a process environment
    variable points to a file containing the URL of the listening GASS
    server...  If the address should change, the GridManager requests the
    JobManager to update the file").
    """

    def __init__(self, lrm: "LocalResourceManager", job: LRMJob):
        self.lrm = lrm
        self.job = job
        self.sim: Simulator = lrm.sim
        self.host: Host = lrm.host

    def read_env(self, name: str, default: Any = None) -> Any:
        env_file = self.lrm._env_overrides.get(self.job.local_id, {})
        if name in env_file:
            return env_file[name]
        return self.job.spec.env.get(name, default)

    def write_output(self, text: str) -> None:
        """Append to the job's stdout file on the site's local disk.

        The JobManager tails this file and forwards new bytes to the
        submit machine's GASS server; keeping the authoritative copy
        site-local is what lets a restarted JobManager resend output
        after a crash (§3.2).
        """
        self.lrm.append_output(self.job.local_id, text)

    def write_error(self, text: str) -> None:
        """Append to the job's stderr file (streamed like stdout)."""
        self.lrm.append_error(self.job.local_id, text)

    def write_file(self, name: str, size: int = 0, data: str = "") -> None:
        """Create/overwrite a scratch output file; staged out at job end
        if the submitter listed it in the request's output_files."""
        self.lrm.write_scratch_file(self.job.local_id, name,
                                    size=size, data=data)


# -- the batch system ----------------------------------------------------------

class LocalResourceManager(Service):
    """Base batch system: slots, a queue, and a scheduling policy.

    Subclasses override :meth:`order_queue` (and optionally
    :meth:`can_start`) to model specific products.  Exposed RPC methods:
    ``submit``, ``poll`` (a batched status sweep over the change log),
    ``cancel``, ``update_env``, ``read_output``, ``read_error``,
    ``read_file``, ``queue_info``.
    """

    service_name = "lrm"
    flavor = "generic"

    def __init__(self, host: Host, slots: int, name: str = ""):
        super().__init__(host, name=name or self.service_name)
        self.sim = host.sim
        self.slots = slots
        self.free_slots = slots
        self.jobs: dict[str, LRMJob] = {}
        self.queue: list[str] = []
        self.queued_cpus = 0                  # CPUs asked for by `queue`
        self.running: dict[str, Any] = {}     # local_id -> body Process
        self._ids = itertools.count(1)
        self._env_overrides: dict[str, dict] = {}
        self._wake = self.sim.event(name=f"lrm-wake:{host.name}")
        self.total_busy_time = 0.0            # CPU-seconds delivered
        self.user_usage: dict[str, float] = {}  # CPU-seconds per user
        self._output: dict[str, str] = {}       # job stdout, site-local disk
        self._errout: dict[str, str] = {}       # job stderr, site-local disk
        self._files: dict[str, dict] = {}       # job scratch output files
        self._dedup: dict[str, str] = {}        # dedup_key -> local_id
        # Append-only change log: the local_id of every start, finish,
        # preempt-requeue and stdout/stderr growth, in order.  A poll
        # cursor is a position in it.
        self._changes: list[str] = []
        host.spawn(self._scheduler_loop(), name=f"lrm:{host.name}")

    # -- identity ------------------------------------------------------------
    @property
    def contact(self) -> str:
        return self.host.name

    def _trace(self, event: str, **details: Any) -> None:
        self.sim.trace.log(f"lrm:{self.host.name}", event, **details)

    # -- RPC handlers ---------------------------------------------------------
    def handle_submit(self, ctx, spec: JobSpec, owner: str = "",
                      dedup_key: str = "") -> str:
        """Submit a job; `dedup_key` makes resubmission idempotent.

        A JobManager retrying after a lost response supplies its own id
        as the key, so the same logical job can never enter the queue
        twice (the GRAM submit wrapper records the LRM id atomically).
        """
        if dedup_key:
            existing = self._dedup.get(dedup_key)
            if existing is not None:
                return existing
        local_id = self.submit(spec,
                               owner or (ctx.principal or ctx.caller_host))
        if dedup_key:
            self._dedup[dedup_key] = local_id
        return local_id

    def handle_poll(self, ctx, since: Optional[int] = None,
                    local_ids=()) -> dict:
        """One status sweep: views of every job that changed after cursor
        `since`, plus `local_ids` regardless (unknown ids are omitted).

        Costs O(changed jobs), not O(jobs).  The LRM keeps no per-caller
        state: the caller adopts the returned ``cursor`` only when the
        reply arrives, so a lost reply is repaired by asking again.
        ``since=None`` (a caller with no history) lists `local_ids` only.
        """
        changed = [] if since is None else self._changes[since:]
        return FrozenDict(
            cursor=len(self._changes),
            views=tuple(self.view(local_id)
                        for local_id in dict.fromkeys((*changed,
                                                       *local_ids))
                        if local_id in self.jobs))

    def handle_cancel(self, ctx, local_id: str) -> bool:
        return self.cancel(local_id)

    def handle_update_env(self, ctx, local_id: str, name: str,
                          value: Any) -> bool:
        self._env_overrides.setdefault(local_id, {})[name] = value
        return True

    def handle_read_output(self, ctx, local_id: str, offset: int = 0) -> str:
        """Job stdout from `offset` on (JobManager tailing / resend)."""
        return self.read_output(local_id, offset)

    def handle_read_error(self, ctx, local_id: str, offset: int = 0) -> str:
        return self.read_error(local_id, offset)

    def handle_read_file(self, ctx, local_id: str, name: str):
        return self.read_scratch_file(local_id, name)

    def handle_queue_info(self, ctx) -> dict:
        return self.queue_info()

    # -- local API (used in-process by site machinery) -------------------------
    def submit(self, spec: JobSpec, owner: str) -> str:
        local_id = f"{self.flavor}.{next(self._ids)}"
        job = LRMJob(local_id=local_id, spec=spec, owner=owner,
                     submit_time=self.sim.now, state_since=self.sim.now)
        self.jobs[local_id] = job
        self.queue.append(local_id)
        self.queued_cpus += spec.cpus
        self.sim.metrics.counter("lrm.jobs").inc(label="submitted")
        self.sim.metrics.gauge("lrm.queue_depth").inc()
        self._trace("submit", job=local_id, owner=owner,
                    cpus=spec.cpus, runtime=spec.runtime)
        self._kick()
        return local_id

    def cancel(self, local_id: str) -> bool:
        job = self.jobs.get(local_id)
        if job is None or job.state in TERMINAL_STATES:
            return False
        if job.state == QUEUED or job.state == PREEMPTED:
            if local_id in self.queue:
                self.queue.remove(local_id)
                self.queued_cpus -= job.spec.cpus
                self.sim.metrics.gauge("lrm.queue_depth").dec()
            self._finish(job, CANCELLED, reason="cancelled by user")
            return True
        proc = self.running.get(local_id)
        if proc is not None:
            proc.interrupt(cause="cancel")
        return True

    def depth(self) -> int:
        """Number of queued (not yet running) jobs; O(1)."""
        return len(self.queue)

    def queue_info(self) -> dict:
        # queued_cpus is maintained incrementally at every queue
        # mutation, so probes no longer walk the queue per call.
        return {
            "flavor": self.flavor,
            "slots": self.slots,
            "free_slots": self.free_slots,
            "queued_jobs": len(self.queue),
            "running_jobs": len(self.running),
            "queued_cpus": self.queued_cpus,
        }

    def status(self, local_id: str) -> LRMJob:
        return self.jobs[local_id]

    def view(self, local_id: str) -> FrozenDict:
        """What a poll reports for one job: its public view plus how much
        stdout/stderr sits on site-local disk (so a JobManager reads a
        stream only when it grew)."""
        return FrozenDict(
            self.jobs[local_id].public_view(),
            stdout_len=len(self._output.get(local_id, "")),
            stderr_len=len(self._errout.get(local_id, "")))

    def _set_state(self, job: LRMJob, state: str) -> None:
        job.state = state
        job.state_since = self.sim.now
        self._changes.append(job.local_id)

    def append_output(self, local_id: str, text: str) -> None:
        self._output[local_id] = self._output.get(local_id, "") + text
        self._changes.append(local_id)

    def read_output(self, local_id: str, offset: int = 0) -> str:
        return self._output.get(local_id, "")[offset:]

    def append_error(self, local_id: str, text: str) -> None:
        self._errout[local_id] = self._errout.get(local_id, "") + text
        self._changes.append(local_id)

    def read_error(self, local_id: str, offset: int = 0) -> str:
        return self._errout.get(local_id, "")[offset:]

    def write_scratch_file(self, local_id: str, name: str,
                           size: int = 0, data: str = "") -> None:
        self._files.setdefault(local_id, {})[name] = {
            "size": size if size else len(data), "data": data}

    def read_scratch_file(self, local_id: str, name: str):
        entry = self._files.get(local_id, {}).get(name)
        if entry is None:
            raise FileNotFoundError(f"{local_id}:{name}")
        return entry

    # -- scheduling ------------------------------------------------------------
    def order_queue(self, queued: list[LRMJob]) -> list[LRMJob]:
        """Policy hook: the order in which queued jobs are considered."""
        return sorted(queued, key=lambda j: j.submit_time)

    def can_start(self, job: LRMJob) -> bool:
        return job.spec.cpus <= self.free_slots

    def backfill(self) -> bool:
        """Policy hook: may jobs behind a blocked head job start first?"""
        return False

    def _kick(self) -> None:
        if not self._wake.triggered and not self._wake._scheduled:
            self._wake.succeed(None)

    def _scheduler_loop(self):
        while True:
            self._schedule_pass()
            self._wake = self.sim.event(name=f"lrm-wake:{self.host.name}")
            yield self._wake

    def _schedule_pass(self) -> None:
        """Start what fits, in policy order.  A job needs at least one
        slot, so a full machine (or an empty queue) is not even sorted
        and the scan ends with the last free slot."""
        if self.free_slots <= 0 or not self.queue:
            return
        for job in self.order_queue([self.jobs[j] for j in self.queue]):
            if self.free_slots <= 0:
                break
            if self.can_start(job):
                self.queue.remove(job.local_id)
                self.queued_cpus -= job.spec.cpus
                self.sim.metrics.gauge("lrm.queue_depth").dec()
                self._start(job)
            elif not self.backfill():
                break

    def _start(self, job: LRMJob) -> None:
        self.free_slots -= job.spec.cpus
        self._set_state(job, RUNNING)
        job.start_time = self.sim.now
        if job.remaining is None:
            job.remaining = job.spec.runtime
        proc = self.host.spawn(self._run_body(job),
                               name=f"job:{job.local_id}")
        self.running[job.local_id] = proc
        self.sim.metrics.counter("lrm.jobs").inc(label="started")
        self.sim.metrics.gauge("lrm.busy_slots").inc(job.spec.cpus)
        self.sim.metrics.histogram("lrm.queue_wait").observe(
            self.sim.now - job.submit_time)
        self._trace("start", job=job.local_id, owner=job.owner,
                    waited=self.sim.now - job.submit_time)

    def _run_body(self, job: LRMJob):
        spec = job.spec
        started = self.sim.now
        outcome, reason, code = COMPLETED, "", spec.exit_code
        body = None
        try:
            if spec.program is not None:
                body = self.sim.spawn(
                    spec.program(ExecutionContext(self, job)),
                    name=f"body:{job.local_id}", host=self.host)
                if spec.walltime is not None:
                    index, value = yield self.sim.any_of(
                        [body, self.sim.timeout(spec.walltime)])
                    if index == 1:
                        body.kill(cause="walltime")
                        outcome, reason = FAILED, "walltime exceeded"
                    else:
                        code = value if isinstance(value, int) else 0
                else:
                    value = yield body
                    code = value if isinstance(value, int) else 0
            else:
                duration = job.remaining if job.remaining is not None \
                    else spec.runtime
                if spec.walltime is not None and duration > spec.walltime:
                    yield self.sim.timeout(spec.walltime)
                    outcome, reason = FAILED, "walltime exceeded"
                else:
                    yield self.sim.timeout(duration)
                    if code != 0:
                        outcome, reason = FAILED, f"exit code {code}"
        except Interrupt as intr:
            # The allocation is being revoked: whatever was running in it
            # dies with it (preemption and cancellation both SIGKILL the
            # job's process group).
            if body is not None and body.alive:
                body.kill(cause=str(intr.cause))
            if intr.cause == "preempt":
                self._handle_preemption(job, started)
                return
            outcome, reason, code = CANCELLED, str(intr.cause), None
        except Exception as exc:  # noqa: BLE001 - job body failed
            outcome, reason = FAILED, f"{type(exc).__name__}: {exc}"
            code = 1
        self._account(job, self.sim.now - started)
        self._release(job)
        job.exit_code = code
        self._finish(job, outcome, reason)

    def _account(self, job: LRMJob, elapsed: float) -> None:
        cpu_seconds = elapsed * job.spec.cpus
        self.total_busy_time += cpu_seconds
        self.user_usage[job.owner] = \
            self.user_usage.get(job.owner, 0.0) + cpu_seconds

    def _handle_preemption(self, job: LRMJob, started: float) -> None:
        elapsed = self.sim.now - started
        self._account(job, elapsed)
        self._release(job)
        job.preempt_count += 1
        if job.spec.checkpointable and job.spec.program is None:
            job.remaining = max(0.0, (job.remaining or job.spec.runtime)
                                - elapsed)
        else:
            job.remaining = None   # restart from scratch
        self._trace("preempt", job=job.local_id,
                    remaining=job.remaining)
        if job.spec.requeue_on_preempt:
            self._set_state(job, QUEUED)
            self.queue.append(job.local_id)
            self.queued_cpus += job.spec.cpus
            self.sim.metrics.gauge("lrm.queue_depth").inc()
            self._kick()
        else:
            self._finish(job, PREEMPTED, reason="vacated by resource owner")

    def _release(self, job: LRMJob) -> None:
        self.running.pop(job.local_id, None)
        self.free_slots += job.spec.cpus
        self.sim.metrics.gauge("lrm.busy_slots").dec(job.spec.cpus)
        self._kick()

    def _finish(self, job: LRMJob, state: str, reason: str = "") -> None:
        self._set_state(job, state)
        job.end_time = self.sim.now
        job.failure_reason = reason
        self._env_overrides.pop(job.local_id, None)
        self.sim.metrics.counter("lrm.jobs").inc(label=state.lower())
        self._trace("finish", job=job.local_id, state=state, reason=reason)

    # -- preemption (used by the Condor-pool flavor) ----------------------------
    def preempt(self, local_id: str) -> bool:
        """Vacate a running job (resource claimed by its owner)."""
        proc = self.running.get(local_id)
        if proc is None:
            return False
        proc.interrupt(cause="preempt")
        return True
