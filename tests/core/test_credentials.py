"""Credential management (§4.3): expiry, hold + e-mail, refresh,
re-forwarding, and MyProxy auto-refresh."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=12, **kw):
    tb = GridTestbed(TestbedConfig(seed=seed, use_gsi=True, **kw))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    return tb


def test_warning_email_before_expiry():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=3000.0,
                         warn_threshold=1000.0))
    agent.submit(JobDescription(runtime=100.0), resource="wisc-gk")
    tb.run(until=2500.0)
    assert agent.notifier.emails_about("credential expiry warning")


def test_expired_proxy_holds_queued_jobs_and_emails():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=500.0))
    done = agent.submit(JobDescription(runtime=100.0), resource="wisc-gk")
    tb.run(until=400.0)
    assert agent.status(done).is_complete
    # submit more work after expiry: it must hold, not run
    tb.run(until=600.0)
    late = agent.submit(JobDescription(runtime=100.0), resource="wisc-gk")
    tb.run(until=1500.0)
    status = agent.status(late)
    assert status.state == "HELD"
    assert agent.notifier.emails_about("credential")


def test_user_refresh_releases_holds_and_completes():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=500.0))
    tb.run(until=600.0)
    late = agent.submit(JobDescription(runtime=100.0), resource="wisc-gk")
    tb.run(until=1200.0)
    assert agent.status(late).state == "HELD"
    # the user runs grid-proxy-init again
    fresh = tb.users["alice"].proxy(now=tb.sim.now, lifetime=12 * 3600.0)
    agent.refresh_proxy(fresh)
    tb.run_until_quiet(max_time=20000.0)
    assert agent.status(late).is_complete


def test_refresh_reforwards_to_remote_jobmanagers():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=5000.0))
    jid = agent.submit(JobDescription(runtime=800.0), resource="wisc-gk")
    tb.run(until=200.0)
    fresh = tb.users["alice"].proxy(now=tb.sim.now, lifetime=12 * 3600.0)
    agent.refresh_proxy(fresh)
    tb.run(until=400.0)
    assert tb.sim.trace.select("credmon", "reforwarded")
    jm_trace = [r for r in tb.sim.trace
                if r.event == "credential_refreshed"]
    assert jm_trace
    tb.run_until_quiet(max_time=20000.0)
    assert agent.status(jid).is_complete


def test_myproxy_auto_refresh_keeps_long_run_going():
    """With MyProxy configured the agent refreshes short proxies itself:
    no holds survive, no user action needed (§4.3 last paragraph)."""
    tb = GridTestbed(TestbedConfig(seed=12, use_gsi=True, with_myproxy=True))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=600.0, myproxy=True))
    ids = [agent.submit(JobDescription(runtime=300.0),
                        resource="wisc-gk") for _ in range(3)]
    # run far past several proxy lifetimes
    tb.run(until=3000.0)
    late = agent.submit(JobDescription(runtime=200.0), resource="wisc-gk")
    tb.run_until_quiet(max_time=30000.0)
    assert all(agent.status(j).is_complete for j in ids + [late])
    assert len(tb.sim.trace.select("credmon", "refreshed", user="alice")) \
        + len(tb.sim.trace.select("credmon", "myproxy_refreshed",
                                  user="alice")) >= 1
    assert tb.sim.trace.select("credmon", "myproxy_refreshed")


def test_without_myproxy_jobs_stay_held():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=300.0))
    tb.run(until=500.0)
    late = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    tb.run(until=5000.0)
    assert agent.status(late).state == "HELD"


def test_myproxy_bad_passphrase_rejected():
    tb = GridTestbed(TestbedConfig(seed=12, use_gsi=True, with_myproxy=True))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=300.0, myproxy=True))
    agent.credmon.myproxy["passphrase"] = "wrong"
    tb.run(until=400.0)     # proxy already expired; refresh keeps failing
    late = agent.submit(JobDescription(runtime=50.0), resource="wisc-gk")
    tb.run(until=5000.0)
    assert agent.status(late).state == "HELD"
    assert tb.sim.trace.select("credmon", "myproxy_failed")


def test_delegated_proxy_cannot_outlive_user_proxy():
    from repro.gsi import delegate

    tb = make_tb()
    user = tb.add_user("carol")
    proxy = user.proxy(now=0.0, lifetime=1000.0)
    forwarded = delegate(proxy, now=100.0, lifetime=10**9)
    assert forwarded.not_after <= proxy.not_after


def test_midflight_hold_release_does_not_duplicate_execution():
    """A job held *while committed and running* must reconnect on
    release, not resubmit: resubmission would mint a new GRAM sequence
    number and run the payload twice (see
    GridManager.release_credential_holds)."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=400.0), resource="wisc-gk")
    tb.run(until=100.0)
    job = agent.queue.jobs[jid]
    assert job.state == "ACTIVE" and job.committed and job.jmid

    # A probe/poll discovers a credential error mid-flight.
    agent.gridmanager.credential_problem(job, "proxy credential expired")
    assert job.state == "HELD"

    fresh = tb.users["alice"].proxy(now=tb.sim.now, lifetime=12 * 3600.0)
    agent.refresh_proxy(fresh)
    tb.run(until=150.0)
    assert job.state in ("PENDING", "ACTIVE", "DONE")
    assert job.attempts == 1      # no resubmission happened

    tb.run_until_quiet(max_time=20000.0)
    assert agent.status(jid).is_complete
    completed = [j for j in tb.sites["wisc"].lrm.jobs.values()
                 if j.state == "COMPLETED"]
    assert len(completed) == 1
