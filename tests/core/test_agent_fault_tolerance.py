"""Agent-level fault tolerance: the four §4.2 failure classes, driven by
the GridManager's own probing/restart machinery and the machines' own
boot actions (no manual recovery)."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=8, **kw):
    tb = GridTestbed(TestbedConfig(seed=seed, **kw))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
    return tb


def jm_services(tb, site="wisc"):
    gk = tb.sites[site].gk_host
    return [s for name, s in gk.services.items() if name.startswith("jm:")]


def test_class1_jobmanager_crash_auto_restarted():
    """GridManager probes, notices the dead JobManager, and restarts it
    via the gatekeeper -- job completes without user action."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0),
                       resource="wisc-gk")
    tb.run(until=100.0)
    jms = jm_services(tb)
    assert len(jms) == 1
    jms[0].crash()
    tb.run_until_quiet(max_time=5000.0)
    assert agent.status(jid).is_complete
    assert tb.sim.trace.select("gridmanager", "jobmanager_restarted")
    assert len(tb.sites["wisc"].lrm.jobs) == 1       # exactly once


def test_class2_remote_machine_crash_recovered():
    """The whole gatekeeper machine reboots; the agent reconnects."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=400.0),
                       resource="wisc-gk")
    tb.run(until=100.0)
    tb.failures.crash_host_at(100.0, tb.sites["wisc"].gk_host,
                              down_for=120.0)
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete
    assert len(tb.sites["wisc"].lrm.jobs) == 1
    # while the machine was down the agent observed unreachability
    assert tb.sim.trace.select("gridmanager", "resource_unreachable")


def _twelve_lines(ctx):
    for i in range(12):
        yield ctx.sim.timeout(50.0)
        ctx.write_output(f"line {i}\n")
    return 0


# Both of the next two run GSI off and on under one test id each (the
# ids are pinned by the suite's floor list, so a loop, not parametrize).

def test_class3_submit_machine_crash_recovers_from_queue():
    """The submit machine reboots; the agent its boot builds reconnects
    to the running remote job via the persisted queue (seq + jmid), and
    the user's view -- status, log, stdout -- has no hole in it."""
    for use_gsi in (False, True):
        tb = make_tb(use_gsi=use_gsi)
        agent = tb.add_agent(AgentSpec("alice"))
        jid = agent.submit(
            JobDescription(runtime=600.0, program=_twelve_lines),
            resource="wisc-gk")
        tb.run(until=150.0)
        assert agent.status(jid).state == "ACTIVE"
        agent.host.crash()
        tb.run(until=250.0)
        agent.host.restart()
        job = agent.scheduler.jobs[jid]
        assert job.committed and job.jmid    # protocol state survived
        tb.run_until_quiet(max_time=5000.0)
        assert agent.status(jid).state == "DONE", use_gsi
        assert [e.event for e in agent.logs(jid)] == [
            "queued", "submit", "execute", "terminate"], use_gsi
        assert agent.stdout_of(jid) == "".join(
            f"line {i}\n" for i in range(12)), use_gsi
        assert len(tb.sites["wisc"].lrm.jobs) == 1    # no duplicate


def test_queue_writes_the_request_once_and_recovery_rejoins_it():
    """The frozen request goes to its own namespace at submission; state
    changes rewrite only the progress record; recovery joins the two."""
    for use_gsi in (False, True):
        tb = make_tb(use_gsi=use_gsi)
        agent = tb.add_agent(AgentSpec("alice"))
        jid = agent.submit(JobDescription(runtime=600.0),
                           resource="wisc-gk")
        stable = agent.host.stable
        job = agent.scheduler.jobs[jid]
        request = stable.get("condorg-queue-request:alice", jid)
        assert request == job.request
        request_writes = []
        put = stable.put
        stable.put = lambda ns, key, value: (
            request_writes.append(key) if "request" in ns else None,
            put(ns, key, value))
        tb.run(until=150.0)
        assert agent.status(jid).state == "ACTIVE"
        progress = stable.get("condorg-queue:alice", jid)
        assert progress["state"] == "ACTIVE" and "request" not in progress
        assert request_writes == []      # several state changes, no rewrite
        agent.host.crash()
        agent.host.restart()
        recovered = agent.scheduler.jobs[jid]
        assert recovered is not job
        assert recovered.request == request
        assert (recovered.state, recovered.seq, recovered.jmid) == \
            ("ACTIVE", job.seq, job.jmid)


def test_submit_machine_crash_with_the_commit_ack_lost():
    """Phase 1 answered, the commit reached the JobManager, its ACK was
    lost, and the submit machine dies before the retry: the recovered
    agent must neither resubmit (the job is running) nor leave the job
    where no probe looks at it."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0), resource="wisc-gk")
    job = agent.scheduler.jobs[jid]
    while not job.jmid:
        tb.sim.step()
    jm = tb.sites["wisc"].gk_host.services[f"jm:{job.jmid}"]
    tb.net.loss_rate = 1.0                   # drops exactly the ACK
    while not jm._committed.triggered:
        tb.sim.step()
    tb.net.loss_rate = 0.0
    tb.run(until=5.0)
    assert jm.local_id and not job.committed
    agent.host.crash()
    tb.run(until=60.0)
    agent.host.restart()
    # from here on no callback gets through: only the probe can help
    tb.failures.partition_at(61.0, "wisc-gk", agent.host.name,
                             heal_after=400.0)
    tb.run_until_quiet(max_time=5000.0)
    assert agent.status(jid).state == "DONE"
    assert agent.status(jid).attempts == 1
    assert len(tb.sites["wisc"].lrm.jobs) == 1


def test_class4_network_partition_heals():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=300.0),
                       resource="wisc-gk")
    tb.run(until=100.0)
    tb.failures.partition_at(100.0, agent.host.name, "wisc-gk",
                             heal_after=400.0)
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete
    assert len(tb.sites["wisc"].lrm.jobs) == 1


def test_job_finishing_during_partition_not_lost():
    """'the JobManager exited normally (because the job completed during
    a network failure)... the new JobManager will tell the GridManager
    that the job has completed.'"""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=100.0),
                       resource="wisc-gk")
    tb.run(until=50.0)
    tb.failures.partition_at(50.0, agent.host.name, "wisc-gk",
                             heal_after=500.0)   # job ends at ~100
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete


def test_gatekeeper_crash_before_commit_no_duplicate():
    """Crash in the 2PC window: the uncommitted JobManager is lost with
    the machine; the agent retries the same submission; exactly one LRM
    job results."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    # crash the gatekeeper the instant the submit request would arrive
    tb.failures.crash_host_at(0.5, tb.sites["wisc"].gk_host,
                              down_for=60.0)
    jid = agent.submit(JobDescription(runtime=100.0),
                       resource="wisc-gk")
    tb.run_until_quiet(max_time=8000.0)
    assert agent.status(jid).is_complete
    assert len(tb.sites["wisc"].lrm.jobs) == 1


def test_transient_remote_failure_resubmitted_elsewhere():
    """A job killed by a site's walltime limit... stays FAILED (that is
    an application/site mismatch), but an infrastructure failure is
    resubmitted: here, stage-in failing because the executable URL is
    bad never resolves, so after max_attempts the job fails with the
    stage-in reason recorded."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    from repro.gram.protocol import GramJobRequest

    request = GramJobRequest(executable_url="gass://nowhere/gass/x",
                             runtime=10.0)
    jid = agent.scheduler.submit(request, resource="wisc-gk")
    tb.run_until_quiet(max_time=20000.0)
    job = agent.scheduler.jobs[jid]
    assert job.state == "FAILED"
    assert job.attempts == job.max_attempts       # it did retry
    assert "stage-in" in job.failure_reason


def test_flaky_network_run_completes_exactly_once():
    """Everything on at once: 10% WAN loss, a gatekeeper reboot, a
    JobManager crash -- all jobs still complete exactly once."""
    tb = make_tb(seed=17, loss_rate=0.1)
    agent = tb.add_agent(AgentSpec("alice"))
    ids = [agent.submit(JobDescription(runtime=200.0 + 10 * i),
                        resource="wisc-gk") for i in range(6)]
    tb.failures.crash_host_at(150.0, tb.sites["wisc"].gk_host,
                              down_for=90.0)
    tb.run_until_quiet(max_time=30000.0)
    assert all(agent.status(j).is_complete for j in ids)
    lrm = tb.sites["wisc"].lrm
    completed = [j for j in lrm.jobs.values() if j.state == "COMPLETED"]
    assert len(completed) == 6          # exactly once each
