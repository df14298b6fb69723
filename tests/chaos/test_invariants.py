"""Each invariant must catch a deliberately seeded violation.

A checker that never fires is worse than no checker: campaigns would
report "zero violations" forever while proving nothing.  Every test here
either recreates a real historical bug (the pre-fix lost-ACK duplicate
run) or tampers a healthy run into the smallest state that breaks one
guarantee, then asserts the corresponding invariant -- and only it --
reports the damage.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.chaos import evaluate_invariants
from repro.chaos.invariants import (
    check_conservation,
    check_credential_hold_notify,
    check_exactly_once,
    check_no_orphan_glideins,
    check_terminal_or_held,
)
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def _drain(tb, agent, ids, cap=20_000.0):
    while not all(agent.status(j).is_terminal for j in ids) \
            and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + 500.0)


@pytest.fixture
def small_grid():
    tb = GridTestbed(TestbedConfig(seed=11))
    site = tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("alice"))
    return tb, site, agent


class TestExactlyOnce:
    def test_clean_run_has_no_violations(self, small_grid):
        tb, _site, agent = small_grid
        ids = [agent.submit(JobDescription(runtime=100.0),
                            resource="site-gk") for _ in range(2)]
        _drain(tb, agent, ids)
        assert check_exactly_once(tb) == []

    def test_catches_duplicate_execution(self, small_grid):
        """Recreate the pre-PR-1 lost-ACK bug: the agent forgets a
        successful commit and submits the same logical job again, so the
        site scheduler runs the payload twice."""
        tb, _site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=300.0),
                           resource="site-gk")
        while agent.status(jid).state != "ACTIVE" and tb.sim.now < 2000.0:
            tb.sim.run(until=tb.sim.now + 10.0)
        job = agent.queue.jobs[jid]
        assert job.state == "ACTIVE" and job.committed

        # Amnesia: pretend the phase-2 ACK never landed and the agent
        # lost every trace of the first attempt.
        job.state = "UNSUBMITTED"
        job.committed = False
        job.jmid = ""
        job.contact = ""
        agent.queue.persist(job)
        agent.gridmanager.kick()
        _drain(tb, agent, [jid])

        violations = check_exactly_once(tb)
        assert any("ran to completion" in v.detail for v in violations), \
            violations
        assert all(v.invariant == "exactly_once" for v in violations)

    def test_catches_done_without_execution(self, small_grid):
        tb, _site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=100.0),
                           resource="site-gk")
        tb.sim.run(until=5.0)
        agent.queue.jobs[jid].state = "DONE"     # faked completion
        violations = check_exactly_once(tb)
        assert any("no completed LRM execution" in v.detail
                   for v in violations), violations


class TestTerminalOrHeld:
    def test_catches_stuck_job(self, small_grid):
        tb, _site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=500.0),
                           resource="site-gk")
        tb.sim.run(until=100.0)      # job mid-flight: not settled yet
        violations = check_terminal_or_held(tb)
        assert any(v.context.get("job") == jid for v in violations), \
            violations

    def test_catches_hold_without_reason(self, small_grid):
        tb, _site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=50.0),
                           resource="site-gk")
        _drain(tb, agent, [jid])
        job = agent.queue.jobs[jid]
        job.state = "HELD"
        job.hold_reason = ""
        violations = check_terminal_or_held(tb)
        assert any("without a reason" in v.detail for v in violations)


class TestCredentialHoldNotify:
    def _held_run(self):
        """Submit with an expired proxy: jobs must hold+notify (§4.3).

        Expiry after delegation does not disturb running jobs (the
        JobManager holds its own delegated proxy), so the natural hold
        path is a job that still *needs* the credential -- here, one
        whose submission authenticates against the dead proxy.
        """
        tb = GridTestbed(TestbedConfig(seed=13, use_gsi=True))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
        agent = tb.add_agent(AgentSpec("carol"))
        agent.credmon.proxy = tb.users["carol"].credential.create_proxy(
            now=0.0, lifetime=0.0)
        for _ in range(2):
            agent.submit(JobDescription(runtime=100.0),
                         resource="wisc-gk")
        tb.sim.run(until=400.0)
        return tb, agent

    def test_expiry_yields_hold_and_notification(self):
        tb, agent = self._held_run()
        held = [j for j in agent.gridmanager.jobs_for_user()
                if j.state == "HELD"]
        assert held, [(j.job_id, j.state)
                      for j in agent.gridmanager.jobs_for_user()]
        assert all(j.hold_reason for j in held)
        assert agent.notifier.emails_about("credential")
        assert check_credential_hold_notify(tb) == []

    def test_catches_silent_hold(self):
        tb, agent = self._held_run()
        agent.notifier.inbox.clear()         # suppress the e-mail
        violations = check_credential_hold_notify(tb)
        assert any("never e-mailed" in v.detail for v in violations)

    def test_catches_credential_failure(self):
        tb, agent = self._held_run()
        job = next(iter(agent.gridmanager.jobs_for_user()))
        job.state = "FAILED"
        job.failure_reason = "proxy credential expired"
        violations = check_credential_hold_notify(tb)
        assert any("should have been held" in v.detail
                   for v in violations)


class TestNoOrphanGlideins:
    def test_catches_nonzero_gauge_after_drain(self, small_grid):
        tb, _site, _agent = small_grid
        tb.sim.run(until=10.0)
        assert check_no_orphan_glideins(tb) == []
        tb.sim.metrics.gauge("glidein.live").set(2.0)
        violations = check_no_orphan_glideins(tb)
        assert any("gauge" in v.detail for v in violations)

    def test_catches_surviving_startd(self, small_grid):
        tb, site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=60.0),
                           resource="site-gk")
        _drain(tb, agent, [jid])
        # Fake a drained allocation whose startd never shut down: the
        # manager thinks job `jid` (terminal) bought a startd that is
        # still registered on its host.
        manager = agent.glideins
        manager.submitted.append(jid)
        manager.live_startds.append(agent.collector)
        violations = check_no_orphan_glideins(tb)
        assert any("startd" in v.detail for v in violations), violations


class TestConservation:
    def test_clean_run_conserves(self, small_grid):
        tb, _site, agent = small_grid
        ids = [agent.submit(JobDescription(runtime=80.0),
                            resource="site-gk") for _ in range(3)]
        _drain(tb, agent, ids)
        assert check_conservation(tb) == []

    def test_catches_counter_drift(self, small_grid):
        tb, _site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=80.0),
                           resource="site-gk")
        _drain(tb, agent, [jid])
        tb.sim.metrics.counter("scheduler.jobs_queued").inc(5)
        violations = check_conservation(tb)
        assert any("jobs_queued" in v.detail for v in violations)

    def test_catches_finish_drift(self, small_grid):
        tb, _site, agent = small_grid
        jid = agent.submit(JobDescription(runtime=80.0),
                           resource="site-gk")
        _drain(tb, agent, [jid])
        tb.sim.metrics.counter("scheduler.jobs_finished").inc(3)
        violations = check_conservation(tb)
        assert any("terminal" in v.detail for v in violations)

    def test_a_removed_pool_job_next_to_grid_jobs_conserves(
            self, small_grid):
        """Every universe is traced: a pool job's removal writes its
        ``scheduler removed`` record like a grid job's, and the finish
        counters (grid jobs only) are checked against grid removals."""
        tb, _site, agent = small_grid
        grid = [agent.submit(JobDescription(runtime=80.0),
                             resource="site-gk") for _ in range(2)]
        pool = agent.submit(JobDescription(universe="vanilla",
                                           runtime=80.0))
        tb.sim.run(until=5.0)
        agent.cancel(pool)
        agent.cancel(grid[1])
        _drain(tb, agent, grid + [pool])
        removed = tb.sim.trace.select("scheduler", "removed")
        assert sorted(rec.details["job"] for rec in removed) == \
            sorted([grid[1], pool])
        assert str(agent.status(pool).state) == "REMOVED"
        assert check_conservation(tb) == []


def test_suite_runs_every_invariant(small_grid):
    tb, _site, agent = small_grid
    jid = agent.submit(JobDescription(runtime=60.0), resource="site-gk")
    _drain(tb, agent, [jid])
    assert evaluate_invariants(tb) == []
