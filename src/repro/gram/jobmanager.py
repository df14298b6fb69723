"""The Globus JobManager daemon (paper Figure 1, §3.2, §4.2).

One JobManager per submitted job, created by the Gatekeeper on the site's
interface machine.  It:

* waits for the two-phase *commit* before doing anything irreversible;
* stages the executable and stdin from the client's GASS server;
* submits the job to the site's local scheduler (PBS/LSF/Condor/...),
  using a dedup key so that a replayed submission after a JobManager
  restart cannot create a second LRM job;
* blocks until the interface machine's status sweep (:class:`LrmSweep`)
  reports a change of its job, pushing status callbacks to the client;
* tails the job's site-local stdout file when the sweep says it grew and
  streams new bytes to the client's GASS server with explicit offsets
  (duplicate-safe), asking the server how much it already has after any
  interruption;
* persists its state to the interface machine's disk so a *restarted*
  JobManager (GRAM-2 `restart` request) resumes watching the same LRM job.

The JobManager is deliberately the *fragile* component: it lives on the
crashable gatekeeper host, while the LRM and the job itself survive on
the cluster side -- reproducing the §4.2 failure matrix.

One JobManager per job must not mean one LRM poll loop per job (§3.2,
§5.1: that is what melts the interface machine).  All JobManagers of one
interface machine share one :class:`LrmSweep`, which reads the batch
system once per ``POLL_INTERVAL`` and wakes only those whose job changed.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..gass.client import gass_append, gass_get, gass_received
from ..sim.errors import RPCError, RPCTimeout
from ..sim.fastcopy import FrozenDict
from ..sim.hosts import Host
from ..sim.kernel import Event
from ..sim.rpc import Service, call, notify
from . import protocol
from .protocol import GramJobRequest, to_lrm_spec

STATE_NS = "gram-jm"          # stable-storage namespace on the gatekeeper
REQUEST_NS = "gram-jm-request"   # the job request, written once per change


class LrmSweep(Service):
    """The status sweep of one interface machine; ``lrm-sweep:<lrm>``.

    Every ``POLL_INTERVAL`` it asks the LRM for the views of all jobs
    changed since its cursor (plus the ids JobManagers asked for
    explicitly) and hands each view to the JobManager watching that job.
    There is no push from the LRM: a change is seen at the next sweep.

    Nothing is lost across faults: the cursor advances only on a reply,
    so a timed-out sweep replays the same changes; a view for a busy
    JobManager is buffered until it waits again.  Registered on the host,
    it dies with the interface machine; it stops when nobody watches.
    Either way the next JobManager to watch creates a fresh one, which
    needs no log history because every first wait asks by id.
    """

    def __init__(self, host: Host, lrm_contact: str):
        super().__init__(host, name=f"lrm-sweep:{lrm_contact}")
        self.lrm_contact = lrm_contact
        self.cursor: Optional[int] = None   # LRM change-log position
        # local_id -> the event its JobManager blocks on (None: busy)
        self.watching: dict[str, Optional[Event]] = {}
        self.views: dict[str, dict] = {}    # newest view not yet taken
        self.by_id: list[str] = []          # report these regardless
        host.spawn(self._loop(), name=self.name)
        self.sim.trace.log(self.name, "start", host=host.name)

    def watch(self, local_id: str) -> None:
        self.watching[local_id] = None
        self.ask(local_id)

    def unwatch(self, local_id: str) -> None:
        self.watching.pop(local_id, None)
        self.views.pop(local_id, None)

    def ask(self, local_id: str) -> None:
        """Have the next sweep report a watched job even if the LRM
        logged no change for it."""
        if local_id in self.watching:
            self.by_id.append(local_id)

    def next_view(self, local_id: str) -> Event:
        """Event firing with the job's next view (at once if one was
        buffered while its JobManager was busy)."""
        event = self.sim.event(name=f"lrm-view:{local_id}")
        if local_id in self.views:
            event.succeed(self.views.pop(local_id))
        else:
            self.watching[local_id] = event
        return event

    def _loop(self):
        polls = self.sim.metrics.counter("lrm_sweep.polls")
        batch = self.sim.metrics.histogram("lrm_sweep.batch")
        while True:
            yield self.sim.timeout(JobManager.POLL_INTERVAL)
            if not self.watching:
                break
            by_id, self.by_id = self.by_id, []
            try:
                reply = yield from call(self.host, self.lrm_contact, "lrm",
                                        "poll", since=self.cursor,
                                        local_ids=by_id)
            except RPCError:
                polls.inc(label="failed")
                self.by_id = by_id + self.by_id   # same question next time
                continue
            polls.inc(label="ok")
            batch.observe(len(reply["views"]))
            self.cursor = reply["cursor"]
            for view in reply["views"]:
                local_id = view["local_id"]
                if local_id not in self.watching:
                    continue
                event = self.watching[local_id]
                if event is None:
                    self.views[local_id] = view
                else:
                    self.watching[local_id] = None
                    event.succeed(view)
        self.sim.trace.log(self.name, "stop", host=self.host.name)
        self.shutdown()


class JobManager(Service):
    """Per-job manager daemon; service name ``jm:<jmid>``."""

    COMMIT_WINDOW = 120.0      # abort if no commit arrives in time
    POLL_INTERVAL = 5.0

    def __init__(
        self,
        host: Host,
        jmid: str,
        lrm_contact: str,
        request: Optional[GramJobRequest] = None,
        client_callback: Optional[tuple[str, str]] = None,
        owner: str = "",
        credential=None,
        restarted: bool = False,
        live: Optional[Counter] = None,
        table: Optional[dict] = None,
    ):
        super().__init__(host, name=f"jm:{jmid}")
        self.jmid = jmid
        self.lrm_contact = lrm_contact
        self.request = request
        self.client_callback = client_callback   # (host, service)
        self.owner = owner
        self.credential = credential
        self.state = protocol.UNCOMMITTED
        self.local_id: Optional[str] = None
        self.failure_reason = ""
        self.exit_code: Optional[int] = None
        self.stdout_sent = 0
        self.stderr_sent = 0
        self._committed = host.sim.event(name=f"commit:{jmid}")
        self._store = host.stable.namespace(STATE_NS)
        self._requests = host.stable.namespace(REQUEST_NS)
        self._procs = []
        # our creator's tally of live JobManagers, and whether we are in;
        # its table owner -> {jmid: registered JobManager}, likewise
        self._live_tally = Counter() if live is None else live
        self._live = False
        self._table = {} if table is None else table
        if restarted:
            self._recover()
        else:
            self._persist_request()
            self._persist()
            self._procs.append(
                host.spawn(self._lifecycle(), name=f"jobmanager:{jmid}"))
        self._count_live()

    def _count_live(self) -> None:
        """Live = registered and not GRAM-terminal (call on any change)."""
        registered = self.host.services.get(self.name) is self
        live = registered and self.state not in protocol.GRAM_TERMINAL
        for key in (self.owner, None):
            self._live_tally[key] += live - self._live
        self._live = live
        mine = self._table.setdefault(self.owner, {})
        if registered:
            mine[self.jmid] = self
        else:
            mine.pop(self.jmid, None)

    # -- persistence ----------------------------------------------------------
    def _persist_request(self) -> None:
        """The request is large and frozen: written at creation and when
        a client update replaces it, not on every state change."""
        self._requests.put(self.jmid, self.request)

    def _persist(self) -> None:
        self._store.put(self.jmid, FrozenDict(
            jmid=self.jmid,
            state=self.state,
            local_id=self.local_id,
            owner=self.owner,
            client_callback=self.client_callback,
            stdout_sent=self.stdout_sent,
            stderr_sent=self.stderr_sent,
            failure_reason=self.failure_reason,
            exit_code=self.exit_code,
        ))
        self._publish()

    def _publish(self) -> None:
        """Our status as a value, built when it is written, not when it
        is read: the answer to ``status`` and our entry in every Grid
        Monitor report."""
        self.status = FrozenDict(
            jmid=self.jmid,
            state=self.state,
            failure_reason=self.failure_reason,
            exit_code=self.exit_code,
        )

    def _recover(self) -> None:
        record = self._store.get(self.jmid)
        if record is None:
            raise RPCError(f"no state file for jobmanager {self.jmid}")
        self.state = record["state"]
        self.local_id = record["local_id"]
        self.owner = record["owner"]
        self.client_callback = record["client_callback"]
        self.request = self._requests.get(self.jmid)
        self.failure_reason = record.get("failure_reason", "")
        self.exit_code = record.get("exit_code")
        # Conservative: re-derive stream progress from the client, not
        # from our own possibly-stale counters.
        self.stdout_sent = 0
        self.stderr_sent = 0
        self._publish()
        self._trace("recovered", state=self.state, local=self.local_id)
        if self.state == protocol.UNCOMMITTED:
            # Crash before commit: nothing was submitted; abort cleanly.
            self._fail("jobmanager crashed before commit")
        elif self.state not in protocol.GRAM_TERMINAL:
            if self.local_id is None:
                # Crashed after commit but before the LRM accepted the
                # job: resume the pipeline (the dedup key makes a raced
                # earlier submission harmless).
                self._procs.append(self.host.spawn(
                    self._resume_submission(),
                    name=f"jobmanager:{self.jmid}"))
            else:
                self._procs.append(self.host.spawn(
                    self._monitor_body(), name=f"jobmanager:{self.jmid}"))

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"jobmanager:{self.jmid}", event, **details)

    def crash(self) -> None:
        """Kill just this daemon (failure class 1 of §4.2).

        The state file stays on disk; the LRM job, if any, keeps running.
        The GridManager's probing will notice the silence and ask the
        gatekeeper to restart us.
        """
        self._trace("crash")
        for proc in self._procs:
            proc.kill(cause="jobmanager crash")
        self._procs.clear()
        sweep = self._sweep(create=False)
        if sweep is not None:
            sweep.unwatch(self.local_id)   # neighbours' sweep goes on
        self.shutdown()    # unregister the service: probes now time out
        self._count_live()

    def _sweep(self, create: bool = True) -> Optional[LrmSweep]:
        """This machine's sweeper for our LRM; the first JobManager to
        need one (after boot, or after an idle stop) creates it."""
        sweep = self.host.services.get(f"lrm-sweep:{self.lrm_contact}")
        if sweep is None and create:
            sweep = LrmSweep(self.host, self.lrm_contact)
        return sweep

    # -- RPC handlers -----------------------------------------------------------
    def handle_commit(self, ctx) -> bool:
        """Phase 2 of the submission protocol (idempotent)."""
        if not self._committed.triggered and not self._committed._scheduled:
            self._committed.succeed(None)
        return True

    def handle_status(self, ctx) -> dict:
        """Current state; answering at all is the liveness proof the
        GridManager's failure detector (§4.2) looks for."""
        return self.status

    def handle_cancel(self, ctx):
        if self.local_id is not None and \
                self.state not in protocol.GRAM_TERMINAL:
            yield from call(self.host, self.lrm_contact, "lrm", "cancel",
                            local_id=self.local_id)
        self._fail("cancelled by client")
        return True

    def handle_update_env(self, ctx, name: str, value) -> object:
        """Rewrite the job's environment file (GASS redirect, §4.2)."""
        if self.local_id is None:
            # Not yet submitted: mutate the pending request.
            if self.request is not None:
                self.request = self.request.with_env(**{name: value})
            self._persist_request()
            return True
        return self._forward_env(name, value)

    def _forward_env(self, name: str, value):
        result = yield from call(self.host, self.lrm_contact, "lrm",
                                 "update_env", local_id=self.local_id,
                                 name=name, value=value)
        return result

    def handle_refresh_credential(self, ctx) -> bool:
        """Accept a re-forwarded (refreshed) proxy from the client (§4.3)."""
        self.credential = ctx.credential
        self._trace("credential_refreshed")
        return True

    # -- lifecycle -----------------------------------------------------------
    def _lifecycle(self):
        # Phase 2 wait: abort if the commit never arrives.
        created = self.sim.now
        index, _ = yield self.sim.any_of(
            [self._committed, self.sim.timeout(self.COMMIT_WINDOW)])
        if index == 1:
            self.sim.metrics.counter("jobmanager.commit_expired").inc()
            self._fail("commit window expired (two-phase abort)")
            self._trace("commit_timeout")
            return
        self.sim.metrics.histogram("jobmanager.commit_wait").observe(
            self.sim.now - created)
        self._trace("committed")
        self.state = protocol.STAGE_IN
        self._persist()
        try:
            yield from self._stage_in()
        except RPCError as exc:
            self._fail(f"stage-in failed: {exc}")
            yield from self._notify_client()
            return
        yield from self._submit_to_lrm()
        if self.state not in protocol.GRAM_TERMINAL:
            yield from self._monitor_body()

    def _stage_in(self):
        """Fetch executable and stdin from the client's GASS server."""
        assert self.request is not None
        for url in (self.request.executable_url, self.request.stdin_url):
            if url:
                got = yield from gass_get(self.host, url,
                                          credential=self.credential)
                self._trace("staged", url=url, size=got["size"])

    def _submit_to_lrm(self):
        assert self.request is not None
        spec = to_lrm_spec(self.request)
        last_error = None
        for _attempt in range(4):
            self.sim.metrics.counter("jobmanager.lrm_submit_rpcs").inc()
            try:
                self.local_id = yield from call(
                    self.host, self.lrm_contact, "lrm", "submit",
                    spec=spec, owner=self.owner, dedup_key=self.jmid)
                break
            except RPCError as exc:
                last_error = exc   # dedup key makes the retry safe
        else:
            self._fail(f"local scheduler submission failed: {last_error}")
            yield from self._notify_client()
            return
        self.state = protocol.PENDING
        self._persist()
        self._trace("lrm_submit", local=self.local_id,
                    lrm=self.lrm_contact)
        yield from self._notify_client()

    def _resume_submission(self):
        """Recovery entry point for a crash inside the commit->LRM window."""
        try:
            yield from self._stage_in()
        except RPCError as exc:
            self._fail(f"stage-in failed: {exc}")
            yield from self._notify_client()
            return
        yield from self._submit_to_lrm()
        if self.state not in protocol.GRAM_TERMINAL:
            yield from self._monitor_body()

    def _monitor_body(self):
        # Watching asks for the job by id once, so the first view (after
        # creation or _recover) never depends on log history; after that
        # the JobManager sleeps until the LRM logs a change.
        sweep = self._sweep()
        sweep.watch(self.local_id)
        while self.state not in protocol.GRAM_TERMINAL:
            view = yield sweep.next_view(self.local_id)
            seen = self.sim.now
            new_state = self._map_lrm(view)
            reached_terminal = (new_state in protocol.GRAM_TERMINAL
                                and self.state not in protocol.GRAM_TERMINAL)
            if reached_terminal and new_state == protocol.DONE:
                # stage-out before the DONE callback: when the user hears
                # "done", the output files are already home (GRAM order).
                yield from self._stage_out()
            if new_state != self.state:
                self.state = new_state
                self.failure_reason = view.get("failure_reason", "")
                self.exit_code = view.get("exit_code")
                self._persist()
                self._count_live()
                self.sim.metrics.counter("jobmanager.state_changes").inc(
                    label=new_state)
                self.sim.metrics.histogram(
                    "jobmanager.detect_latency").observe(
                        seen - view["state_since"])
                self._trace("state", state=new_state)
                yield from self._notify_client()
            behind = yield from self._pump_stdout(view["stdout_len"])
            behind |= yield from self._pump_stderr(view["stderr_len"])
            if behind:
                sweep.ask(self.local_id)   # nothing will change at the LRM
        sweep.unwatch(self.local_id)
        self._trace("exit", state=self.state)

    def _stage_out(self):
        """Push declared output files from site scratch to client GASS."""
        request = self.request
        if request is None or not request.output_files:
            return
        from ..gass.client import gass_put

        for name, url in sorted(request.output_files.items()):
            try:
                entry = yield from call(self.host, self.lrm_contact,
                                        "lrm", "read_file",
                                        local_id=self.local_id, name=name)
            except RPCError as exc:
                self._trace("stage_out_missing", file=name, error=str(exc))
                continue
            for _attempt in range(4):
                try:
                    yield from gass_put(self.host, url,
                                        size=entry["size"],
                                        data=entry["data"],
                                        credential=self.credential)
                    self._trace("staged_out", file=name,
                                size=entry["size"], url=url)
                    break
                except RPCError:
                    yield self.sim.timeout(10.0)

    def _map_lrm(self, view: dict) -> str:
        lrm_state = view["state"]
        if lrm_state == "QUEUED" and view.get("preempt_count", 0) > 0:
            return protocol.PENDING   # requeued after preemption
        return protocol.gram_state_of(lrm_state)

    # -- stdout/stderr streaming ---------------------------------------------
    def _pump_stdout(self, available: int):
        return (yield from self._pump_stream(
            "read_output", "stdout_sent", available,
            self.request.stdout_url if self.request else ""))

    def _pump_stderr(self, available: int):
        return (yield from self._pump_stream(
            "read_error", "stderr_sent", available,
            self.request.stderr_url if self.request else ""))

    def _pump_stream(self, reader: str, counter: str, available: int,
                     url: str):
        """Forward new site-local bytes of one stream to the client GASS.

        `available` is the stream's length as the sweep reported it: no
        RPC is sent for a stream that did not grow.  Returns whether the
        client is still behind it (so the next sweep must report the job
        again even if nothing changes at the LRM).
        """
        sent = getattr(self, counter)
        if not url or sent >= available:
            return False
        try:
            text = yield from call(self.host, self.lrm_contact, "lrm",
                                   reader, local_id=self.local_id,
                                   offset=sent)
        except RPCError:
            return True
        try:
            new_total = yield from gass_append(
                self.host, url, text, offset=sent,
                credential=self.credential)
            setattr(self, counter, new_total)
        except RPCError:
            # Client side unreachable or restarted with less data than we
            # think: re-derive the offset and let the next round resend.
            try:
                setattr(self, counter, (yield from gass_received(
                    self.host, url, credential=self.credential)))
            except RPCError:
                pass
        self._persist()
        return getattr(self, counter) < available

    # -- callbacks ------------------------------------------------------------
    def _notify_client(self):
        """Push a status callback (best-effort; the client's §4.2
        status probe catches a lost one)."""
        if self.client_callback is None:
            return
        host_name, service = self.client_callback
        notify(self.host, host_name, service, "gram_callback",
               jmid=self.jmid, state=self.state,
               failure_reason=self.failure_reason,
               exit_code=self.exit_code)
        if False:   # pragma: no cover - keeps this a generator
            yield None

    def _fail(self, reason: str) -> None:
        if self.state not in protocol.GRAM_TERMINAL:
            self.state = protocol.FAILED
            self.failure_reason = reason
            self._persist()
            self._count_live()
