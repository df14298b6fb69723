"""Regressions for silent failure-handling bugs in the GridManager.

1. The status path used to swallow :class:`AuthenticationError` with the
   generic RPC handler, so an expired proxy was never routed to the §5
   hold-and-notify path -- and, once it was, the error was counted even
   when it belonged to a superseded attempt.  One ``status`` per site is
   now the §4.2 probe, so there is one place to get this right.
2. ``_submission_failed`` used to rewrite every failure reason as
   "local scheduler submission failed: ..." -- masking the real cause in
   the userlog *and* making the transient classification depend on the
   mask string instead of the failure itself.
3. Phase 2 of a submission had no superseded guard: a commit that came
   home after the attempt had been reclaimed (or had finished) stamped
   ``committed, PENDING`` over whatever had happened meanwhile.
4. The user's cancel swallowed *any* error of the remote cancel and
   marked the job removed: a bug in the cancel path looked like a
   successful removal.  Only an RPC failure is the remote side's.
5. A failed JobManager restart was read as "no state file" whatever
   the error -- a refused credential included -- and resubmitted a job
   whose LRM job still ran.  Only the gatekeeper's explicit answer
   resubmits; a credential refusal holds; anything else waits.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.gram.client import Gram2Client, GramClientError
from repro.sim.errors import AuthenticationError, RemoteError, RPCTimeout, \
    SimulationError
from repro.sim.rpc import CallContext
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=44):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    return tb


def test_status_auth_error_holds_once_and_counts_once(monkeypatch):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=800.0), resource="site-gk")
    tb.run(until=15.0)
    assert agent.status(jid).state in ("PENDING", "ACTIVE")

    def bad_status(self, contact, jmid, done=()):
        raise AuthenticationError("proxy expired while watching")
        yield  # pragma: no cover -- generator like the real method

    monkeypatch.setattr(Gram2Client, "status", bad_status)
    tb.run(until=200.0)

    status = agent.status(jid)
    assert status.state == "HELD"
    assert "credential problem" in status.hold_reason
    assert "proxy expired while watching" in status.hold_reason
    assert agent.notifier.emails_about("credential")
    reg = tb.sim.metrics
    # held jobs leave the watch set: later passes neither re-count nor
    # re-hold, and the error never entered the §4.2 silence tree
    outcomes = reg.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("credential") == outcomes.value == 1
    assert reg.counter("scheduler.credential_holds").value == 1


def test_stale_status_auth_error_does_not_count_or_hold(monkeypatch):
    """A status RPC that fails authentication for a *superseded*
    attempt says nothing about the current attempt's credential: both
    the ``credential`` outcome and the hold are gated on the attempt
    match (the metric used to fire first, so resubmission races
    inflated the credential-error count)."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=800.0), resource="site-gk")
    tb.run(until=15.0)
    job = agent.queue.jobs[jid]
    assert job.jmid

    asked = []

    def racing_status(self, contact, jmid, done=()):
        # The attempt is superseded while the status RPC is in flight
        # (exactly what a concurrent failure-report + resubmit does),
        # then the in-flight RPC comes back with an auth error.
        asked.append(jmid)
        job.jmid = f"jm-attempt-{len(asked)}"
        raise AuthenticationError("stale proxy error for old attempt")
        yield  # pragma: no cover -- generator like the real method

    monkeypatch.setattr(Gram2Client, "status", racing_status)
    tb.run(until=100.0)

    assert len(asked) >= 2
    reg = tb.sim.metrics
    assert reg.counter("gridmanager.probe_outcomes").value == 0
    assert reg.counter("scheduler.credential_holds").value == 0
    assert agent.status(jid).state != "HELD"


def test_commit_ack_after_the_attempt_was_reclaimed_loses_no_job():
    """The commit is delivered but its ACK is cut off; the JobManager's
    stage-in then fails against the unreachable submit machine and,
    after the heal, its failure callback reclaims the job (UNSUBMITTED,
    no jmid) while the commit retries are still running.  The retry
    that finally succeeds used to stamp ``committed, PENDING`` on the
    reclaimed job: unwatchable (no jmid) and never resubmitted."""
    tb = make_tb()
    site = tb.sites["site"]
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=100.0), resource="site-gk")
    tb.failures.isolate_at(0.19, "site-gk", rejoin_after=55.0)
    tb.run(until=3000.0)

    assert tb.sim.trace.select("gridmanager", "submit_superseded")
    status = agent.status(jid)
    assert status.is_complete
    assert status.attempts == 2
    assert [j.state for j in site.lrm.jobs.values()] == ["COMPLETED"]


def test_commit_ack_after_the_job_finished_does_not_resurrect_it(
        monkeypatch):
    """A commit whose ACK reaches the submit loop after the job's DONE
    callback must not move the job back to PENDING (it used to, and the
    job was then finished a second time)."""
    real_commit = Gram2Client.commit

    def late_commit(self, contact, jmid):
        result = yield from real_commit(self, contact, jmid)
        yield self.sim.timeout(60.0)
        return result

    monkeypatch.setattr(Gram2Client, "commit", late_commit)
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=20.0), resource="site-gk")
    tb.run(until=3000.0)

    assert agent.status(jid).is_complete
    assert len(tb.sim.trace.select("scheduler", "terminate")) == 1
    assert tb.sim.metrics.counter("scheduler.jobs_finished").value == 1
    assert len(tb.sites["site"].lrm.jobs) == 1


def test_submission_failure_reason_is_not_masked(monkeypatch):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))

    def bad_phase1(self, resource, request, seq, callback):
        raise GramClientError(
            f"submit to {resource} failed after "
            f"{self.max_attempts} attempts")
        yield  # pragma: no cover

    monkeypatch.setattr(Gram2Client, "submit_phase1", bad_phase1)
    jid = agent.submit(JobDescription(runtime=50.0), resource="site-gk")
    tb.run(until=2000.0)

    status = agent.status(jid)
    assert status.state == "FAILED"
    # the userlog keeps the *real* reason...
    assert status.failure_reason.startswith("submit to site-gk")
    assert "local scheduler submission failed" not in status.failure_reason
    # ...and the failure still classified as transient: every attempt
    # before max_attempts was resubmitted, not failed outright.
    resubmits = tb.sim.trace.select("gridmanager", "resubmit")
    assert len(resubmits) == status.attempts - 1 >= 1
    reg = tb.sim.metrics
    assert reg.counter("gridmanager.resubmits").value == len(resubmits)
    assert reg.counter("gridmanager.submit_failures").labelled("phase1") \
        == status.attempts


def test_unacknowledged_commit_does_not_resubmit():
    """Regression (found by the exactly-once property test): a lost
    commit *ACK* is indistinguishable from a lost commit, and the
    JobManager may already be running the job.  The GridManager used to
    exhaust its commit retries and resubmit -- executing the job twice.
    It must park the job under the probe machinery instead."""
    tb = GridTestbed(TestbedConfig(seed=268, loss_rate=0.15))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=6))
    agent = tb.add_agent(AgentSpec("user"))
    ids = [agent.submit(JobDescription(runtime=150.0 + 10 * i),
                        resource="site-gk") for i in range(3)]
    tb.failures.crash_host_at(11.0, site.gk_host, down_for=30.0)
    cap = 4 * 10**4
    while not all(agent.status(j).is_terminal for j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + 1000.0)

    assert all(agent.status(j).is_complete for j in ids)
    completed = [j for j in site.lrm.jobs.values()
                 if j.state == "COMPLETED"]
    assert len(completed) == len(site.lrm.jobs) == 3   # exactly once
    # the dangerous moment was taken: an unacknowledged commit was
    # parked, not resubmitted
    assert tb.sim.trace.select("gridmanager", "commit_unacknowledged")


def test_phase1_auth_failure_holds_instead_of_failing(monkeypatch):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))

    def bad_phase1(self, resource, request, seq, callback):
        raise AuthenticationError("bad proxy signature")
        yield  # pragma: no cover

    monkeypatch.setattr(Gram2Client, "submit_phase1", bad_phase1)
    jid = agent.submit(JobDescription(runtime=50.0), resource="site-gk")
    tb.run(until=200.0)

    status = agent.status(jid)
    assert status.state == "HELD"
    assert "bad proxy signature" in status.hold_reason
    assert not tb.sim.trace.select("gridmanager", "resubmit")


def test_restart_auth_failure_holds_instead_of_resubmitting(monkeypatch):
    """A restart refused for the credential is not "no state file": the
    JobManager's state file and its LRM job still exist, so resubmitting
    ran the job twice.  It is held; released, it reconnects."""
    tb = make_tb(seed=17)
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0), resource="site-gk")
    tb.run(until=60.0)
    job = agent.queue.jobs[jid]
    jmid = job.jmid
    real_restart = Gram2Client.restart_jobmanager

    def refused(self, contact, jmid):
        raise AuthenticationError("proxy rejected on restart")
        yield  # pragma: no cover -- generator like the real method

    monkeypatch.setattr(Gram2Client, "restart_jobmanager", refused)
    tb.sites["site"].gk_host.services[f"jm:{jmid}"].crash()
    tb.run(until=200.0)

    status = agent.status(jid)
    assert status.state == "HELD"
    assert "proxy rejected on restart" in status.hold_reason
    monkeypatch.setattr(Gram2Client, "restart_jobmanager", real_restart)
    agent.gridmanager.release_credential_holds()
    tb.run_until_quiet(max_time=5000.0)

    status = agent.status(jid)
    assert status.is_complete and status.attempts == 1
    assert job.jmid == jmid
    assert tb.sim.metrics.counter("gridmanager.resubmits").value == 0
    assert [j.state for j in tb.sites["site"].lrm.jobs.values()] == \
        ["COMPLETED"]


def test_only_a_missing_state_file_resubmits_after_a_restart(monkeypatch):
    """Any other failed restart waits for the next pass."""
    tb = make_tb(seed=17)
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0), resource="site-gk")
    tb.run(until=60.0)
    jmid = agent.queue.jobs[jid].jmid
    real_restart, failures = Gram2Client.restart_jobmanager, []

    def flaky(self, contact, jmid):
        if len(failures) < 2:
            failures.append(self.sim.now)
            raise RemoteError("gatekeeper overloaded", kind="RuntimeError")
        return (yield from real_restart(self, contact, jmid))

    monkeypatch.setattr(Gram2Client, "restart_jobmanager", flaky)
    tb.sites["site"].gk_host.services[f"jm:{jmid}"].crash()
    tb.run_until_quiet(max_time=5000.0)

    assert len(failures) == 2
    status = agent.status(jid)
    assert status.is_complete and status.attempts == 1
    assert len(tb.sites["site"].lrm.jobs) == 1
    # the gatekeeper's own "no state file" answer is what resubmits
    gatekeeper = tb.sites["site"].gatekeeper
    with pytest.raises(KeyError, match="no state file"):
        gatekeeper.handle_restart_jobmanager(
            CallContext(agent.host.name), "site-jm99")


def _cancel_running_job(monkeypatch, remote_cancel):
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=800.0), resource="site-gk")
    tb.run(until=150.0)
    assert agent.status(jid).state == "ACTIVE"
    monkeypatch.setattr(Gram2Client, "cancel", remote_cancel)
    agent.cancel(jid)
    return tb, agent, jid


def test_cancel_with_the_site_unreachable_still_removes(monkeypatch):
    def unreachable(self, contact, jmid):
        raise RPCTimeout("gatekeeper unreachable")
        yield  # pragma: no cover -- generator like the real method

    tb, agent, jid = _cancel_running_job(monkeypatch, unreachable)
    tb.run(until=200.0)
    status = agent.status(jid)
    assert (status.state, status.failure_reason) == \
        ("FAILED", "removed by user")
    assert [e.event for e in agent.logs(jid)][-1] == "removed"


def test_a_broken_cancel_fails_loudly_instead_of_removing(monkeypatch):
    def broken(self, contact, jmid):
        raise ValueError("cancel bug")
        yield  # pragma: no cover -- generator like the real method

    tb, agent, jid = _cancel_running_job(monkeypatch, broken)
    with pytest.raises(SimulationError, match="ValueError: cancel bug"):
        tb.run(until=200.0)
    assert agent.status(jid).state == "ACTIVE"
    assert "removed" not in [e.event for e in agent.logs(jid)]
