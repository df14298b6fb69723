"""Regressions for silent failure-handling bugs in the GridManager.

1. The status path used to swallow :class:`AuthenticationError` with the
   generic RPC handler, so an expired proxy was never routed to the §5
   hold-and-notify path -- and, once it was, the error was counted even
   when it belonged to a superseded attempt.  ``status`` is now the one
   §4.2 probe, so there is one place to get this right.
2. ``_submission_failed`` used to rewrite every failure reason as
   "local scheduler submission failed: ..." -- masking the real cause in
   the userlog *and* making the transient classification depend on the
   mask string instead of the failure itself.
3. Phase 2 of a submission had no superseded guard: a commit that came
   home after the attempt had been reclaimed (or had finished) stamped
   ``committed, PENDING`` over whatever had happened meanwhile.
"""

from repro import GridTestbed, JobDescription
from repro.gram.client import Gram2Client, GramClientError
from repro.sim.errors import AuthenticationError
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

    def bad_status(self, contact, jmid):
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
    job = agent.scheduler.jobs[jid]
    assert job.jmid

    asked = []

    def racing_status(self, contact, jmid):
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
