"""The Grid Monitor: batched per-site status fan-in (paper §5.1).

The deployment lesson of §5.1 is that one JobManager per job -- each
polled individually over the WAN -- is the scalability wall: a client
that polls each JobManager pays N RPCs per tick for N jobs at a site.
The production fix (the Grid Monitor, also SAMGrid's per-site status
agents) replaces that fan-out
with one small daemon *at the site*: it snapshots the states of all of
one user's JobManagers locally -- same host, no RPC per JobManager --
and ships a single batched report per interval back to the user's
GridManager.

:class:`GridMonitor` is that daemon.  One instance per (user,
gatekeeper) pair, service name ``monitor:<user>``, launched by the
gatekeeper on the client's ``start_monitor`` request -- so it rides the
same GSI path as a submission and dies with the interface machine,
exactly like a JobManager.  The client relaunches it on silence (§4.2
discipline: the site never self-heals client-side daemons).

Reports are *reliable*: each batch is an acknowledged RPC to the
GridManager's callback service, and a JobManager whose terminal state
has not yet been acknowledged stays in the next snapshot.  A lost
report therefore delays nothing for ever -- the retry next interval
carries the same terminal states, and once the heartbeat goes stale
the GridManager asks the gatekeeper about the site's jobs itself, which
covers the monitor dying outright.
"""

from __future__ import annotations

from ..sim.errors import RPCError
from ..sim.fastcopy import FrozenDict
from ..sim.hosts import Host
from ..sim.rpc import Service, call
from .protocol import GRAM_TERMINAL


def statuses(jobmanagers: dict, jmids) -> FrozenDict:
    """``{jmid: status}`` for those of `jmids` registered in one owner's
    table `jobmanagers`, read locally: a Grid Monitor report and a
    gatekeeper ``status`` answer alike."""
    return FrozenDict({jmid: jobmanagers[jmid].status for jmid in jmids
                       if jmid in jobmanagers})


class GridMonitor(Service):
    """Per-(user, gatekeeper) status fan-in daemon; ``monitor:<user>``."""

    REPORT_INTERVAL = 30.0
    RPC_TIMEOUT = 10.0
    #: consecutive report failures before the monitor declares its
    #: client gone and exits (the client relaunches on staleness).
    MAX_REPORT_FAILURES = 3
    #: consecutive empty snapshots before an idle monitor retires.
    MAX_IDLE_INTERVALS = 10

    def __init__(
        self,
        host: Host,
        user: str,
        callback: tuple[str, str],
        jobmanagers: dict,
        site: str = "",
    ):
        super().__init__(host, name=f"monitor:{user}")
        self.user = user
        self.callback = callback    # (host, service) of the client
        # the gatekeeper's table of `user`'s registered JobManagers
        self.jobmanagers = jobmanagers
        self.site = site or host.name
        # stated in the launch answer and in every report: the client's
        # staleness horizon is made of it
        self.interval = self.REPORT_INTERVAL
        self.seq = 0
        # jmids whose terminal state the client has acknowledged: pruned
        # from future snapshots so the batch tracks the *live* population
        # instead of every JobManager this host ever ran.
        self._acked_terminal: set[str] = set()
        self.spawn(self._report_loop(), name=f"gridmonitor:{user}")
        self._trace("start", site=self.site, interval=self.interval)

    def _trace(self, event: str, **details) -> None:
        self.sim.trace.log(f"monitor:{self.user}", event, **details)

    def crash(self, cause: str = "crash") -> None:
        """Kill just this daemon (the `monitor_kill` chaos fault).

        The JobManagers it was watching keep running; the GridManager's
        heartbeat staleness detector notices the silence, falls back to
        asking the gatekeeper's ``status``, and asks it for a fresh
        monitor -- the same client-driven recovery as a JobManager.
        """
        self._trace("crash")
        super().crash(cause)

    # -- snapshot + report ---------------------------------------------------
    def _snapshot(self) -> FrozenDict:
        """States of all of `user`'s JobManagers on this host, locally,
        so the report costs what it carries.  Terminal JobManagers stay
        in the batch until a report carrying them is acknowledged, then
        drop out for good."""
        acked = self._acked_terminal
        return statuses(self.jobmanagers, [
            jmid for jmid in self.jobmanagers if jmid not in acked])

    def _retire(self, reason: str) -> None:
        self._trace("retire", reason=reason)
        self.shutdown()

    def _report_loop(self):
        cb_host, cb_service = self.callback
        reports_metric = self.sim.metrics.counter("monitor.reports")
        failures = 0
        idle = 0
        while True:
            yield self.sim.timeout(self.interval)
            batch = self._snapshot()
            if not batch:
                # Nothing of the user's here right now: stay quiet, and
                # after a long idle stretch retire entirely -- the
                # GridManager re-launches (idempotently) when it submits
                # the site's next job.
                idle += 1
                if idle >= self.MAX_IDLE_INTERVALS:
                    self._retire("idle")
                    return
                continue
            idle = 0
            self.seq += 1
            terminal = [jmid for jmid, entry in batch.items()
                        if entry["state"] in GRAM_TERMINAL]
            try:
                acked = yield from call(
                    self.host, cb_host, cb_service, "monitor_report",
                    timeout=self.RPC_TIMEOUT, site=self.site, seq=self.seq,
                    reports=batch, interval=self.interval)
            except RPCError:
                acked = False
            if not acked:
                # Lost report (client down, WAN partition, ...) or one the
                # client refused (it never asked for us): keep the
                # terminal entries in the next batch -- reliable delivery
                # is retry-until-acked, never fire-and-forget.  But a
                # client that stays silent is gone (exited, or will
                # relaunch us when the partition heals); don't spin for
                # ever -- terminal states survive in the JobManagers,
                # where the client's status asks pick them up.
                reports_metric.inc(label="failed")
                failures += 1
                if failures >= self.MAX_REPORT_FAILURES:
                    self._retire("client silent")
                    return
                continue
            failures = 0
            reports_metric.inc(label="ok")
            self.sim.metrics.counter("monitor.jobs_reported").inc(
                len(batch))
            self._acked_terminal.update(terminal)
