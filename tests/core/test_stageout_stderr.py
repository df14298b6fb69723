"""GRAM output staging: stderr streams and output-file stage-out."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


@pytest.fixture
def tb():
    testbed = GridTestbed(TestbedConfig(seed=99))
    testbed.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
    return testbed


def test_stderr_streams_separately(tb):
    agent = tb.add_agent(AgentSpec("alice"))

    def noisy(ctx):
        ctx.write_output("result line\n")
        ctx.write_error("warning: low memory\n")
        yield ctx.sim.timeout(30.0)
        ctx.write_error("warning: again\n")
        return 0

    jid = agent.submit(JobDescription(runtime=30.0, walltime=10**4,
                                      program=noisy, stream_stderr=True),
                       resource="wisc-gk")
    tb.run_until_quiet(max_time=10**4)
    assert agent.status(jid).is_complete
    assert agent.stdout_of(jid) == "result line\n"
    assert agent.stderr_of(jid) == \
        "warning: low memory\nwarning: again\n"


def test_output_files_staged_out_on_completion(tb):
    agent = tb.add_agent(AgentSpec("alice"))

    def producer(ctx):
        yield ctx.sim.timeout(40.0)
        ctx.write_file("result.dat", size=120_000)
        ctx.write_file("summary.txt", data="energy=-76.4\n")
        return 0

    jid = agent.submit(JobDescription(
        runtime=40.0, walltime=10**4, program=producer,
        output_files=("result.dat", "summary.txt")),
        resource="wisc-gk")
    tb.run_until_quiet(max_time=10**4)
    assert agent.status(jid).is_complete
    result = agent.output_file(jid, "result.dat")
    assert result is not None and result.size == 120_000
    summary = agent.output_file(jid, "summary.txt")
    assert summary is not None and summary.data == "energy=-76.4\n"
    # the stage-out happened before the DONE callback reached the user
    done_time = agent.status(jid).end_time
    staged = [r for r in tb.sim.trace if r.event == "staged_out"]
    assert staged and all(r.time <= done_time for r in staged)


def test_missing_declared_output_degrades_gracefully(tb):
    agent = tb.add_agent(AgentSpec("alice"))

    def lazy(ctx):
        yield ctx.sim.timeout(20.0)
        return 0     # never writes the declared file

    jid = agent.submit(JobDescription(
        runtime=20.0, walltime=10**4, program=lazy,
        output_files=("never.dat",)),
        resource="wisc-gk")
    tb.run_until_quiet(max_time=10**4)
    assert agent.status(jid).is_complete      # the job itself is fine
    assert agent.output_file(jid, "never.dat") is None
    assert tb.sim.trace.select(None, "stage_out_missing")


def test_stage_out_survives_jobmanager_restart(tb):
    """Output files live on the site's disk: a JobManager crash before
    stage-out does not lose them -- the revived JobManager ships them."""
    agent = tb.add_agent(AgentSpec("alice"))

    def producer(ctx):
        ctx.write_file("late.dat", size=5_000)
        yield ctx.sim.timeout(120.0)
        return 0

    jid = agent.submit(JobDescription(
        runtime=120.0, walltime=10**4, program=producer,
        output_files=("late.dat",)),
        resource="wisc-gk")
    tb.run(until=60.0)
    jm = next(s for n, s in tb.sites["wisc"].gk_host.services.items()
              if n.startswith("jm:"))
    jm.crash()
    tb.run_until_quiet(max_time=3 * 10**4)
    assert agent.status(jid).is_complete
    assert agent.output_file(jid, "late.dat").size == 5_000
