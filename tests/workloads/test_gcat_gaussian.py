"""G-Cat + GridGaussian (Experience 3)."""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.gcat import assemble_chunks
from repro.gridftp import GridFTPServer
from repro.sim import Host
from repro.workloads import (
    GaussianJobConfig,
    expected_output,
    gaussian_program,
)
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_env(seed=71):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("ncsa", scheduler="pbs", cpus=4))
    mss = Host(tb.sim, "mss").boot(GridFTPServer)
    agent = tb.add_agent(AgentSpec("portal"))
    return tb, mss, agent


def submit_gaussian(tb, agent, config, mss_base="gsiftp://mss/g98/job1"):
    return agent.submit(
        JobDescription(
            executable="g98",
            runtime=config.iterations * config.seconds_per_iteration,
            walltime=10**6,
            program=gaussian_program(config),
            gcat_mss_url=mss_base,
        ),
        resource="ncsa-gk")


def test_output_reliably_at_mss_on_completion():
    tb, mss, agent = make_env()
    config = GaussianJobConfig(iterations=10, seconds_per_iteration=20.0)
    jid = submit_gaussian(tb, agent, config)
    tb.run_until_quiet(max_time=10**5)
    assert agent.status(jid).is_complete
    results = {}

    def reader():
        text, complete = yield from assemble_chunks(
            agent.host, "gsiftp://mss/g98/job1")
        results["text"], results["complete"] = text, complete

    tb.sim.spawn(reader())
    tb.run(until=tb.sim.now + 300.0)
    assert results["complete"] is True
    assert results["text"] == expected_output(config)


def test_partial_output_viewable_mid_run():
    """'users should be able to view the output as it is produced'"""
    tb, mss, agent = make_env()
    config = GaussianJobConfig(iterations=30, seconds_per_iteration=30.0)
    submit_gaussian(tb, agent, config)
    results = {}

    def reader():
        yield tb.sim.timeout(400.0)        # mid-run
        text, complete = yield from assemble_chunks(
            agent.host, "gsiftp://mss/g98/job1")
        results["partial"] = text
        results["complete"] = complete

    tb.sim.spawn(reader())
    tb.run(until=500.0)
    assert results["partial"].startswith("Gaussian 98 startup")
    assert "[iter   0]" in results["partial"]
    assert results["complete"] is False     # still running
    assert "Normal termination" not in results["partial"]


def test_gcat_buffers_through_mss_outage():
    """'G-Cat hides network performance variations from Gaussian by
    using local scratch storage as a buffer': an MSS outage mid-run
    neither stalls the job nor loses output."""
    tb, mss, agent = make_env()
    config = GaussianJobConfig(iterations=12, seconds_per_iteration=25.0)
    jid = submit_gaussian(tb, agent, config)
    # MSS down during the middle of the run
    tb.failures.crash_host_at(100.0, tb.sim.hosts["mss"],
                              down_for=120.0)
    tb.run_until_quiet(max_time=10**5)
    status = agent.status(jid)
    assert status.is_complete
    # the job itself never slowed down: runtime is exactly nominal
    nominal = config.iterations * config.seconds_per_iteration
    assert status.end_time - status.start_time <= nominal + 60.0
    results = {}

    def reader():
        text, complete = yield from assemble_chunks(
            agent.host, "gsiftp://mss/g98/job1")
        results["text"], results["complete"] = text, complete

    tb.sim.spawn(reader())
    tb.run(until=tb.sim.now + 300.0)
    # NOTE: chunks shipped before the crash died with the MSS's volatile
    # store?  No: the GridFTP store is stable, so everything survives and
    # the final flush completes the file.
    assert results["complete"] is True
    assert results["text"] == expected_output(config)


def test_gcat_chunk_count_reasonable():
    tb, mss, agent = make_env()
    config = GaussianJobConfig(iterations=10, seconds_per_iteration=20.0)
    submit_gaussian(tb, agent, config)
    tb.run_until_quiet(max_time=10**5)
    chunks = tb.sim.trace.select("gcat", "chunk_shipped")
    assert 2 <= len(chunks) <= 30      # periodic chunks, not per-byte
