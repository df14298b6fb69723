"""Agent-level integration: the §4.1 user interface semantics."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


@pytest.fixture
def tb():
    testbed = GridTestbed(TestbedConfig(seed=4))
    testbed.add_site(SiteSpec("wisc", scheduler="pbs", cpus=8))
    return testbed


def test_submit_and_complete(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=60.0),
                       resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    status = agent.status(jid)
    assert status.is_complete
    assert status.exit_code == 0
    assert status.resource == "wisc-gk"


def test_local_look_and_feel_log_history(tb):
    """'obtain access to detailed logs, providing a complete history'"""
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=60.0),
                       resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    events = [e.event for e in agent.logs(jid)]
    assert events[0] == "queued"
    assert "submit" in events
    assert "execute" in events
    assert events[-1] == "terminate"


def test_termination_callback(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    seen = []
    agent.on_termination(lambda job_id, event, details:
                         seen.append((job_id, event)))
    jid = agent.submit(JobDescription(runtime=30.0),
                       resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    assert (jid, "terminate") in seen


def test_query_status_mid_run(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=500.0),
                       resource=tb.sites["wisc"].contact)
    tb.run(until=200.0)
    assert agent.status(jid).state == "ACTIVE"
    tb.run_until_quiet()
    assert agent.status(jid).is_complete


def test_cancel_job(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=5000.0),
                       resource=tb.sites["wisc"].contact)
    tb.run(until=100.0)
    agent.cancel(jid)
    tb.run(until=300.0)
    status = agent.status(jid)
    assert status.state == "FAILED"
    assert "removed" in status.failure_reason
    # the remote LRM job was cancelled too
    lrm_jobs = list(tb.sites["wisc"].lrm.jobs.values())
    assert lrm_jobs[0].state in ("CANCELLED", "COMPLETED")


def test_stdout_streamed_back(tb):
    agent = tb.add_agent(AgentSpec("alice"))

    def chatty(ctx):
        for i in range(3):
            ctx.write_output(f"line{i}\n")
            yield ctx.sim.timeout(20.0)
        return 0

    jid = agent.submit(JobDescription(runtime=60.0, walltime=500.0,
                                      program=chatty),
                       resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    assert agent.status(jid).is_complete
    assert agent.stdout_of(jid) == "line0\nline1\nline2\n"


def test_multiple_jobs_one_gridmanager(tb):
    """'One GridManager process handles all jobs for a single user and
    terminates once all jobs are complete.'"""
    agent = tb.add_agent(AgentSpec("alice"))
    ids = [agent.submit(JobDescription(runtime=50.0),
                        resource=tb.sites["wisc"].contact)
           for _ in range(6)]
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in ids)
    starts = tb.sim.trace.select("gridmanager", "start")
    exits = tb.sim.trace.select("gridmanager", "exit")
    assert len(starts) == 1
    assert len(exits) == 1


def test_gridmanager_respawns_for_new_work(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    first = agent.submit(JobDescription(runtime=30.0),
                         resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    assert agent.status(first).is_complete
    second = agent.submit(JobDescription(runtime=30.0),
                          resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    assert agent.status(second).is_complete
    assert len(tb.sim.trace.select("gridmanager", "start")) == 2


def test_app_failure_is_not_resubmitted(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=10.0, exit_code=3),
                       resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    status = agent.status(jid)
    assert status.state == "FAILED"
    assert status.attempts == 1          # no blind retry of app bugs
    # and the user got an e-mail about it
    assert agent.notifier.emails_about("job failed")


def test_two_agents_isolated(tb):
    alice = tb.add_agent(AgentSpec("alice"))
    bob = tb.add_agent(AgentSpec("bob"))
    a = alice.submit(JobDescription(runtime=30.0),
                     resource=tb.sites["wisc"].contact)
    b, b2 = (bob.submit(JobDescription(runtime=30.0),
                        resource=tb.sites["wisc"].contact)
             for _ in range(2))
    tb.run_until_quiet()
    assert alice.status(a).is_complete
    assert bob.status(b).is_complete and bob.status(b2).is_complete
    # each queue numbers its own jobs, and holds only its own
    assert a == b
    assert [s.job_id for s in alice.statuses()] == [a]
    with pytest.raises(KeyError):
        alice.status(b2)


def test_gsi_enforced_when_enabled():
    tb = GridTestbed(TestbedConfig(seed=4, use_gsi=True))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=30.0),
                       resource=tb.sites["wisc"].contact)
    tb.run_until_quiet()
    assert agent.status(jid).is_complete
    # the job ran under the site-local mapped account
    lrm_job = next(iter(tb.sites["wisc"].lrm.jobs.values()))
    assert lrm_job.owner == "wisc_alice"


def test_unmapped_user_rejected():
    tb = GridTestbed(TestbedConfig(seed=4, use_gsi=True))
    site = tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("mallory"))
    del site.gridmap._entries[tb.users["mallory"].dn]
    jid = agent.submit(JobDescription(runtime=30.0), resource=site.contact)
    tb.run(until=3000.0)
    status = agent.status(jid)
    assert status.state in ("FAILED", "HELD", "UNSUBMITTED")
    assert not tb.sites["wisc"].lrm.jobs     # nothing ran


def test_two_testbeds_in_one_process_number_their_jobs_apart():
    """Building a testbed resets nothing another one holds: each queue
    numbers its own jobs, and the first testbed can still submit."""
    def build():
        tb = GridTestbed(TestbedConfig(seed=5))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
        return tb, tb.add_agent(AgentSpec("alice", personal_pool=False))

    tb1, one = build()
    assert one.submit(JobDescription(runtime=30.0),
                      resource="wisc-gk") == "1.0"
    tb2, two = build()
    assert two.submit(JobDescription(runtime=30.0),
                      resource="wisc-gk") == "1.0"
    assert one.submit(JobDescription(runtime=30.0),
                      resource="wisc-gk") == "2.0"
    for tb, agent in ((tb1, one), (tb2, two)):
        tb.run_until_quiet()
        assert all(s.is_complete for s in agent.statuses())
    assert [s.job_id for s in one.statuses()] == ["1.0", "2.0"]
