"""EXP2 -- §6 Experience 2: the CMS simulation/reconstruction pipeline.

Paper row: a two-node DAG at Caltech triggers **100 simulation jobs** on
the UW Condor pool, **500 events each** (50,000 events total); a
per-job DAG keeps local disk buffers from overflowing and ships every
event file via **GridFTP to the NCSA repository**; once all simulation
data is in, a **reconstruction job on NCSA's PBS** cluster runs --
**1,200 CPU-hours consumed in under 1.5 days**.

Scaled reproduction: identical structure (100 sim jobs x 500 events, a
shipping POST script per job with a buffer limit, a barrier into one PBS
reconstruction job), with per-event CPU costs chosen so the scaled total
matches the paper's 1,200 CPU-hours at TIME_SCALE=100.
"""

import pytest

from repro import GridTestbed
from repro.dagman import DagMan
from repro.gridftp import GridFTPServer
from repro.sim import Host
from repro.workloads import CMSConfig, build_cms_dag
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import TIME_SCALE, drain

# 1,200 CPU-hours / 50,000 events = 86.4 s/event in 2001; at
# TIME_SCALE=100 that is 0.864 sim-seconds per event, split ~72/28
# between simulation and reconstruction.
CONFIG = dict(
    n_simulation_jobs=100,
    sim_seconds_per_event=0.69,
    reco_seconds_per_event=0.17,
    reco_cpus=32,                 # the reconstruction is a wide PBS job
    event_size=2_000,
    buffer_limit_events=25_000,
)


def run_exp2():
    tb = GridTestbed(TestbedConfig(seed=602))
    tb.add_site(SiteSpec("uw", scheduler="condor", cpus=80))
    tb.add_site(SiteSpec("ncsa", scheduler="pbs", cpus=32))
    repo = Host(tb.sim, "ncsa-mss").boot(GridFTPServer)
    agent = tb.add_agent(AgentSpec("caltech"))
    config = CMSConfig(simulation_site="uw-gk",
                       reconstruction_site="ncsa-gk",
                       repository="ncsa-mss", **CONFIG)
    dag, books = build_cms_dag(config)
    dagman = DagMan(agent, dag)
    drain(tb, lambda: dag.is_complete() or dag.has_failed(), cap=10**5)
    return tb, agent, dag, books, repo, config


def test_exp2_cms_pipeline(benchmark, report):
    tb, agent, dag, books, repo, config = benchmark.pedantic(
        run_exp2, iterations=1, rounds=1)
    assert dag.is_complete()

    sim_nodes = [dag.nodes[f"sim{i}"]
                 for i in range(config.n_simulation_jobs)]
    reco = agent.status(dag.nodes["reco"].job_id)
    first_submit = min(agent.status(n.job_id).submit_time
                       for n in sim_nodes)
    elapsed = reco.end_time - first_submit
    elapsed_days_scaled = elapsed * TIME_SCALE / 86400.0
    cpu_seconds = tb.total_cpu_seconds()
    cpu_hours_scaled = cpu_seconds * TIME_SCALE / 3600.0

    received = tb.sim.metrics.counter("gridftp.bytes_received")
    rows = [
        {"metric": "simulation jobs", "paper": "100",
         "measured": f"{config.n_simulation_jobs}"},
        {"metric": "events per job", "paper": "500",
         "measured":
         f"{books.events_simulated // config.n_simulation_jobs}"},
        {"metric": "events simulated+reconstructed", "paper": "50,000",
         "measured": f"{books.events_reconstructed:,}"},
        {"metric": "event files shipped (GridFTP)", "paper": "100",
         "measured": f"{books.transfers}"},
        {"metric": "bytes at NCSA repository", "paper": "(all)",
         "measured": f"{int(received.labelled(repo.host.name)):,}"},
        {"metric": "local buffer overflow", "paper": "never",
         "measured": f"peak {books.buffer_peak:,} of "
                     f"{config.buffer_limit_events:,} events"},
        {"metric": "CPU-hours", "paper": "1,200",
         "measured": f"{cpu_hours_scaled:,.0f} (scaled)"},
        {"metric": "elapsed (days)", "paper": "< 1.5",
         "measured": f"{elapsed_days_scaled:.2f} (scaled)"},
        {"metric": "reconstruction site", "paper": "NCSA PBS",
         "measured": reco.resource},
    ]
    report.table("EXP2: CMS pipeline -- paper vs reproduction "
                 f"(TIME_SCALE={TIME_SCALE:g})", rows,
                 order=["metric", "paper", "measured"])

    # Shape assertions
    assert books.events_reconstructed == 50_000
    assert books.buffer_peak <= config.buffer_limit_events
    assert books.buffer_events == 0           # everything shipped
    assert reco.resource == "ncsa-gk"
    # reconstruction strictly after the last simulation node
    last_sim_end = max(agent.status(n.job_id).end_time
                       for n in sim_nodes)
    assert reco.start_time >= last_sim_end
    assert elapsed_days_scaled < 1.6
    assert 800 <= cpu_hours_scaled <= 1600
