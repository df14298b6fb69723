"""GlideIn mechanism (§5, Figure 2): bootstrap via GridFTP, personal
pool formation, matchmaking onto glideins, sandboxed execution with
remote syscalls and checkpointing, idle shutdown, allocation expiry."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=21, cpus=4, **kw):
    tb = GridTestbed(TestbedConfig(seed=seed, **kw))
    tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=cpus))
    return tb


def test_glidein_joins_personal_pool():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=2, walltime=5000.0)
    tb.run(until=300.0)
    assert len(agent.collector.live_ads("startd")) == 2
    names = [ad.eval("Name") for ad in agent.collector.live_ads("startd")]
    assert all("glidein" in n for n in names)
    assert all(ad.eval("GlideIn") is True
               for ad in agent.collector.live_ads("startd"))


def test_glidein_bootstrap_fetches_binaries_from_repo():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=2, walltime=5000.0)
    tb.run(until=300.0)
    # binaries fetched once per machine (cached for the second glidein)
    fetches = tb.sim.trace.select("glidein", "binaries_fetched")
    assert len(fetches) == 1
    sent = tb.sim.metrics.counter("gridftp.bytes_sent")
    assert sent.labelled("condor-repo") == 5_000_000


def test_figure2_job_runs_on_glidein():
    """The full Figure-2 path: vanilla job queued at the personal schedd
    is matched onto a glided-in startd and completes, with remote
    syscalls served by a shadow on the submit machine."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=1, walltime=50000.0)
    jid = agent.submit(JobDescription(runtime=100.0, universe="standard",
                                      io_interval=20.0, io_bytes=512))
    tb.run(until=3000.0)
    status = agent.status(jid)
    assert status.is_complete
    assert "glidein" in status.resource
    # remote I/O flowed through the shadow
    job = agent.queue.jobs[jid]
    assert job.remote_syscalls > 0
    # trace shows the Figure-2 chain
    assert tb.sim.trace.select("glidein", "startd_up")


def test_glidein_idle_shutdown():
    """'Daemons shut down gracefully when they do not receive any jobs
    to execute after a (configurable) amount of time.'"""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=1, walltime=100000.0,
                   idle_timeout=300.0)
    tb.run(until=200.0)
    assert len(agent.collector.live_ads("startd")) == 1
    tb.run(until=2000.0)
    assert len(agent.collector.live_ads("startd")) == 0
    assert tb.sim.trace.select("glidein", "startd_down")
    # the enclosing GRAM job completed (allocation released, not wasted)
    lrm = tb.sites["wisc"].lrm
    assert all(j.state == "COMPLETED" for j in lrm.jobs.values())


def test_allocation_expiry_reschedules_running_job():
    """Glidein walltime expires mid-job: the startd dies with the
    allocation, the shadow lease notices, and the job reruns on a fresh
    glidein."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    # first glidein dies at t=600; second, longer one picks up the rerun
    agent.glide_in("wisc-gk", count=1, walltime=600.0, idle_timeout=10**6)
    jid = agent.submit(JobDescription(runtime=2000.0, universe="standard"))
    tb.run(until=700.0)
    agent.glide_in("wisc-gk", count=1, walltime=50000.0,
                   idle_timeout=10**6)
    tb.run(until=30000.0)
    job = agent.queue.jobs[jid]
    assert job.state == "COMPLETED"
    assert job.restarts >= 1
    assert job.progress > 0          # checkpoint preserved some work


def test_standard_universe_checkpoint_preserves_goodput():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=1, walltime=900.0, idle_timeout=10**6)
    jid = agent.submit(JobDescription(runtime=2000.0, universe="standard"))
    tb.run(until=1000.0)
    agent.glide_in("wisc-gk", count=1, walltime=50000.0,
                   idle_timeout=10**6)
    tb.run(until=40000.0)
    job = agent.queue.jobs[jid]
    assert job.state == "COMPLETED"
    # with ~900s of first allocation and 60s checkpoints, several
    # hundred seconds of work survived the eviction
    assert job.progress >= 300.0 or job.restarts == 0


def test_glideins_capacity_limited_by_site():
    """Site has 4 cpus; asking for 6 glideins runs at most 4 at once."""
    tb = make_tb(cpus=4)
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=6, walltime=2000.0, idle_timeout=10**6)
    tb.run(until=500.0)
    assert len(agent.collector.live_ads("startd")) <= 4
    lrm = tb.sites["wisc"].lrm
    assert lrm.queue_info()["running_jobs"] == 4
    assert lrm.queue_info()["queued_jobs"] == 2


def test_flood_glideins_across_sites():
    tb = make_tb()
    tb.add_site(SiteSpec("anl", scheduler="lsf", cpus=4))
    tb.add_site(SiteSpec("ncsa", scheduler="loadleveler", cpus=4))
    agent = tb.add_agent(AgentSpec("alice"))
    agent.flood_glideins([s.contact for s in tb.sites.values()],
                         per_site=2, walltime=5000.0)
    tb.run(until=400.0)
    assert len(agent.collector.live_ads("startd")) == 6
    sites = {ad.eval("Site") for ad in agent.collector.live_ads("startd")}
    assert sites == {"wisc", "anl", "ncsa"}


def test_delayed_binding_job_waits_locally_not_remotely():
    """Jobs queue at the *agent*, not in any site queue: before glideins
    arrive the remote LRM sees no user job at all."""
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=50.0, universe="vanilla"))
    tb.run(until=300.0)
    assert agent.queue.jobs[jid].state == "IDLE"      # queued locally
    assert len(tb.sites["wisc"].lrm.jobs) == 0         # nothing remote
    agent.glide_in("wisc-gk", count=1, walltime=5000.0)
    tb.run(until=2000.0)
    assert agent.queue.jobs[jid].state == "COMPLETED"
