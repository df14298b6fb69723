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
from ..sim.errors import RPCError
from ..sim.fastcopy import FrozenDict
from ..sim.hosts import Host
from ..sim.kernel import Event
from ..sim.rpc import Service, call, notify
from ..sim.stats import by, fold
from ..states import GRAM_EDGES, check_edge
from . import protocol
from .protocol import GramJobRequest, to_lrm_spec

fold("jobmanager", "commit_timeout", "jobmanager.commit_expired")
fold("jobmanager", "state", "jobmanager.state_changes", by("state"))

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
        self._polls = self.sim.metrics.counter("lrm_sweep.polls")
        self._batch = self.sim.metrics.histogram("lrm_sweep.batch")
        self.call_at(self.sim.now, self._wait)
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

    def _wait(self, _=None) -> None:
        self.call_at(self.sim.now + JobManager.POLL_INTERVAL, self._poll)

    def _poll(self, _=None) -> None:
        if not self.watching:
            self.sim.trace.log(self.name, "stop", host=self.host.name)
            self.shutdown()
            return
        by_id, self.by_id = self.by_id, []
        self.call_then(self.lrm_contact, "lrm", "poll", self._polled,
                       since=self.cursor, local_ids=tuple(by_id))

    def _polled(self, request) -> None:
        if request.error is not None:
            self._polls.inc(label="failed")
            # the same question next time
            self.by_id = list(request.args["local_ids"]) + self.by_id
        else:
            self._polls.inc(label="ok")
            reply = request.value
            self._batch.observe(len(reply["views"]))
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
        self._wait()


class JobManager(Service):
    """Per-job manager daemon; service name ``jm:<jmid>``."""

    COMMIT_WINDOW = 120.0      # abort if no commit arrives in time
    # the end commit's wait: four of the agent's PROBE_INTERVALs (30 s)
    END_COMMIT_WINDOW = 4 * 30.0
    POLL_INTERVAL = 5.0
    state = protocol.UNCOMMITTED

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
        self.local_id: Optional[str] = None
        self.failure_reason = ""
        self.exit_code: Optional[int] = None
        # stream offsets: volatile, a restart re-derives them from GASS
        self.stdout_sent = 0
        self.stderr_sent = 0
        self._committed = host.sim.event(name=f"commit:{jmid}")
        self._settled: Optional[Event] = None   # a cancel awaits the LRM
        self._store = host.stable.namespace(STATE_NS)
        self._requests = host.stable.namespace(REQUEST_NS)
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
            self.spawn(self._lifecycle(), name=f"jobmanager:{jmid}")
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
            failure_reason=self.failure_reason,
            exit_code=self.exit_code,
        ))
        self._publish()

    def _move(self, state: str, failure_reason: str = "",
              exit_code: Optional[int] = None) -> None:
        """The one writer (``GRAM_EDGES``): persist, publish, recount."""
        if self.host.services.get(self.name) is not self:
            return      # crashed: a dead daemon's late handler writes nothing
        check_edge(GRAM_EDGES, self.name, self.state, state)
        if self.state == protocol.STAGE_IN and self._settled is not None:
            self._settled.succeed(None)
        self.state = state
        self.failure_reason = failure_reason
        self.exit_code = exit_code
        self._persist()
        self._count_live()
        if state in protocol.GRAM_TERMINAL:     # the commit-end wait
            self.call_at(self.sim.now + self.END_COMMIT_WINDOW, self._retire)

    def _publish(self) -> None:
        """Our status as a value, built when it is written, not when it
        is read: our entry in every gatekeeper ``status`` answer and
        Grid Monitor report."""
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
        self._publish()
        self._trace("recovered", state=self.state, local=self.local_id)
        if self.state == protocol.UNCOMMITTED:
            # Crash before commit: nothing was submitted; abort cleanly.
            self._fail("jobmanager crashed before commit")
        elif self.state not in protocol.GRAM_TERMINAL:
            self.spawn(self._pipeline(), name=f"jobmanager:{self.jmid}")
        else:
            self.call_at(self.sim.now + self.END_COMMIT_WINDOW, self._retire)

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"jobmanager:{self.jmid}", event, **details)

    def crash(self, cause: str = "crash") -> None:
        """Kill just this daemon (failure class 1 of §4.2).

        The state file stays on disk; the LRM job, if any, keeps running.
        The GridManager's probing will notice the silence and ask the
        gatekeeper to restart us.
        """
        self._trace("crash")
        self.leave(cause)

    def leave(self, cause: str) -> None:
        """Stop and go off the network; the records stay as they are."""
        super().crash(cause)
        sweep = self._sweep(create=False)
        if sweep is not None:
            sweep.unwatch(self.local_id)   # neighbours' sweep goes on
        self._count_live()  # leave the gatekeeper's status answers

    def _retire(self, _=None) -> None:
        """No end commit in the window: leave, keeping the state record
        (as GT2 does), from which a late asker's restart learns the end."""
        self._requests.delete(self.jmid)
        self._trace("retired", state=self.state)
        self.leave("end commit window")

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

    def handle_cancel(self, ctx):
        if self.state == protocol.STAGE_IN:
            # The LRM submission may be in flight: wait for its answer, so
            # an acknowledged cancel never leaves a job running (see _move)
            if self._settled is None:
                self._settled = self.sim.event(name=f"settled:{self.jmid}")
            yield self._settled
        if self.local_id is not None and \
                self.state not in protocol.GRAM_TERMINAL:
            yield from call(self.host, self.lrm_contact, "lrm", "cancel",
                            local_id=self.local_id)
        self._fail("cancelled by client")
        return True

    def handle_update_env(self, ctx, name: str, value: str) -> object:
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
            self._fail("commit window expired (two-phase abort)")
            self._trace("commit_timeout")
            return
        if self.state in protocol.GRAM_TERMINAL:
            return      # cancelled before the commit: nothing to undo
        self.sim.metrics.histogram("jobmanager.commit_wait").observe(
            self.sim.now - created)
        self._trace("committed")
        self._move(protocol.STAGE_IN)
        yield from self._pipeline()

    def _pipeline(self):
        """Stage in, submit to the LRM, watch: the life after the commit,
        re-entered by a restarted JobManager (the LRM's dedup key makes a
        raced earlier submission harmless)."""
        if self.local_id is None:
            try:
                yield from self._stage_in()
            except RPCError as exc:
                self._fail(f"stage-in failed: {exc}")
                self._notify_client()
                return
            if not (yield from self._submit_to_lrm()):
                return
        yield from self._monitor_body()

    def _stage_in(self):
        """Fetch executable and stdin from the client's GASS server."""
        for url in (self.request.executable_url, self.request.stdin_url):
            if url:
                got = yield from gass_get(self.host, url,
                                          credential=self.credential)
                self._trace("staged", url=url, size=got["size"])

    def _submit_to_lrm(self):
        """Hand the job to the LRM; returns whether it took it."""
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
            self._notify_client()
            return False
        self._move(protocol.PENDING)
        self._trace("lrm_submit", local=self.local_id,
                    lrm=self.lrm_contact)
        self._notify_client()
        return True

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
            if new_state == protocol.DONE and \
                    self.state not in protocol.GRAM_TERMINAL:
                # stage-out before the DONE callback: when the user hears
                # "done", the output files are already home (GRAM order).
                yield from self._stage_out()
            if self.state in protocol.GRAM_TERMINAL:
                break       # cancelled meanwhile: this view is too late
            if new_state != self.state:
                self._move(new_state, view.get("failure_reason", ""),
                           view.get("exit_code"))
                self.sim.metrics.histogram(
                    "jobmanager.detect_latency").observe(
                        seen - view["state_since"])
                self._trace("state", state=new_state)
                self._notify_client()
            request = self.request or GramJobRequest()
            behind = yield from self._pump_stream(
                "read_output", "stdout_sent", view["stdout_len"],
                request.stdout_url)
            behind |= yield from self._pump_stream(
                "read_error", "stderr_sent", view["stderr_len"],
                request.stderr_url)
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
        return getattr(self, counter) < available

    # -- callbacks ------------------------------------------------------------
    def _notify_client(self) -> None:
        """Push a status callback (best-effort; the client's §4.2
        status probe catches a lost one)."""
        if self.client_callback is None:
            return
        host_name, service = self.client_callback
        notify(self.host, host_name, service, "gram_callback",
               jmid=self.jmid, state=self.state,
               failure_reason=self.failure_reason,
               exit_code=self.exit_code)

    def _fail(self, reason: str) -> None:
        if self.state not in protocol.GRAM_TERMINAL:
            self._move(protocol.FAILED, reason)
