#!/usr/bin/env python3
"""Experience 2 in miniature: the CMS simulation/reconstruction DAG.

A Condor-G agent at "Caltech" drives a DAG that fans out simulation jobs
to the "UW" Condor pool; every job's POST script ships its events to the
"NCSA" mass store over GridFTP under a local-disk buffer limit; when all
data has landed, a wide reconstruction job runs on NCSA's PBS cluster.

Run:  python examples/cms_pipeline.py
"""

from repro import GridTestbed
from repro.dagman import DagMan
from repro.gridftp import GridFTPServer
from repro.sim import Host
from repro.workloads import CMSConfig, build_cms_dag
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def main() -> None:
    testbed = GridTestbed(TestbedConfig(seed=8))
    testbed.add_site(SiteSpec("uw", scheduler="condor", cpus=20))
    testbed.add_site(SiteSpec("ncsa", scheduler="pbs", cpus=16))
    mss = Host(testbed.sim, "ncsa-mss").boot(GridFTPServer)
    agent = testbed.add_agent(AgentSpec("caltech"))

    config = CMSConfig(
        simulation_site="uw-gk",
        reconstruction_site="ncsa-gk",
        repository="ncsa-mss",
        n_simulation_jobs=20,
        sim_seconds_per_event=0.5,
        reco_seconds_per_event=0.2,
        reco_cpus=16,
        event_size=2_000,
        buffer_limit_events=5_000,
    )
    dag, books = build_cms_dag(config)
    dagman = DagMan(agent, dag)

    while not (dag.is_complete() or dag.has_failed()) \
            and testbed.sim.now < 10**5:
        testbed.sim.run(until=testbed.sim.now + 2000.0)

    assert dag.is_complete(), dag.counts()
    reco = agent.status(dag.nodes["reco"].job_id)
    print("CMS pipeline finished.")
    print(f"  events simulated      = {books.events_simulated:,}")
    print(f"  events shipped (ftp)  = {books.events_shipped:,} in "
          f"{books.transfers} transfers")
    print(f"  events reconstructed  = {books.events_reconstructed:,}")
    print(f"  buffer peak           = {books.buffer_peak:,} events "
          f"(limit {config.buffer_limit_events:,}; never overflowed)")
    received = testbed.sim.metrics.counter("gridftp.bytes_received")
    print(f"  bytes at the MSS      = "
          f"{int(received.labelled(mss.host.name)):,}")
    print(f"  reconstruction ran at = {reco.resource} "
          f"({config.reco_cpus} cpus)")
    print(f"  total elapsed         = {testbed.sim.now:,.0f} simulated s")
    assert books.buffer_peak <= config.buffer_limit_events
    print("\nOK: full fan-out -> transfer -> barrier -> reconstruction.")


if __name__ == "__main__":
    main()
