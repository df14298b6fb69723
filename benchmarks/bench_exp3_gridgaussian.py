"""EXP3 -- §6 Experience 3: the GridGaussian portal with G-Cat.

Paper rows (qualitative requirements, reproduced as measured outcomes):

1. "the output should be reliably stored at MSS when the job completes"
2. "the users should be able to view the output as it is produced"
3. "G-Cat hides network performance variations from Gaussian by using
   local scratch storage as a buffer"
4. the portal "uses GlideIns to optimize access to remote resources"

The scenario: a portal agent glides into the NCSA compute site, runs
several Gaussian jobs under G-Cat, an MSS outage hits mid-run, and a
user keeps polling the MSS to read partial output.
"""

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

from _scenarios import drain

N_JOBS = 4
CONFIG = GaussianJobConfig(iterations=30, seconds_per_iteration=25.0)


def run_exp3():
    tb = GridTestbed(TestbedConfig(seed=603))
    tb.add_site(SiteSpec("ncsa", scheduler="pbs", cpus=8))
    Host(tb.sim, "mss").boot(GridFTPServer)
    agent = tb.add_agent(AgentSpec("portal"))

    job_ids = []
    for i in range(N_JOBS):
        job_ids.append(agent.submit(
            JobDescription(
                executable="g98",
                runtime=CONFIG.iterations * CONFIG.seconds_per_iteration,
                walltime=10**5,
                program=gaussian_program(CONFIG),
                gcat_mss_url=f"gsiftp://mss/g98/job{i}",
            ),
            resource="ncsa-gk"))

    # a user polls the MSS for job0's output while it runs
    views = []

    def viewer():
        for _ in range(12):
            yield tb.sim.timeout(60.0)
            text, complete = yield from assemble_chunks(
                agent.host, "gsiftp://mss/g98/job0")
            views.append((tb.sim.now, len(text), complete))

    tb.sim.spawn(viewer())

    # MSS outage in the middle of the run (network variation, writ large)
    tb.failures.crash_host_at(300.0, tb.sim.hosts["mss"], down_for=150.0)

    drain(tb, lambda: all(agent.status(j).is_terminal for j in job_ids),
          cap=10**5)
    return tb, agent, job_ids, views


def test_exp3_gridgaussian_portal(benchmark, report):
    tb, agent, job_ids, views = benchmark.pedantic(run_exp3, iterations=1,
                                                   rounds=1)
    assert all(agent.status(j).is_complete for j in job_ids)

    # final completeness check per job
    finals = {}

    def check():
        for i in range(N_JOBS):
            text, complete = yield from assemble_chunks(
                agent.host, f"gsiftp://mss/g98/job{i}")
            finals[i] = (text, complete)

    tb.sim.spawn(check())
    tb.sim.run(until=tb.sim.now + 100.0)

    nominal = CONFIG.iterations * CONFIG.seconds_per_iteration
    slowdowns = [agent.status(j).end_time - agent.status(j).start_time
                 - nominal for j in job_ids]
    mid_run_views = [v for v in views if not v[2] and v[1] > 0]

    rows = [
        {"requirement": "output reliably at MSS on completion",
         "paper": "met via G-Cat",
         "measured": f"{sum(1 for t, c in finals.values() if c)}/"
                     f"{N_JOBS} complete+verified manifests"},
        {"requirement": "view output as it is produced",
         "paper": "chunks + assembly script",
         "measured": f"{len(mid_run_views)} successful partial reads "
                     f"mid-run (first at t={mid_run_views[0][0]:.0f}s)"
         if mid_run_views else "none"},
        {"requirement": "network variation hidden from Gaussian",
         "paper": "local scratch buffering",
         "measured": f"MSS down 150s mid-run; max job slowdown "
                     f"{max(slowdowns):.1f}s (jobs never stalled)"},
        {"requirement": "output content integrity",
         "paper": "(implied)",
         "measured": "byte-exact for all jobs"
         if all(t == expected_output(CONFIG)
                for t, _ in finals.values()) else "MISMATCH"},
    ]
    report.table("EXP3: GridGaussian portal + G-Cat -- requirements vs "
                 "measured", rows,
                 order=["requirement", "paper", "measured"])

    assert all(c for _t, c in finals.values())
    assert all(t == expected_output(CONFIG) for t, _c in finals.values())
    assert mid_run_views, "partial output was never visible mid-run"
    assert max(slowdowns) < 60.0       # the outage never stalled the app
