#!/usr/bin/env python3
"""Experience 1 in miniature: a distributed QAP branch-and-bound.

Recreates the structure of the paper's record-setting computation (§6):
a Master-Worker application whose workers are independent Condor jobs
communicating with the master over Remote I/O (Shadow syscalls), running
on a personal Condor pool built by *gliding in* to three grid sites --
while desktop owners keep reclaiming workstations.

The mathematics is real: workers expand branch-and-bound nodes with
Gilmore-Lawler bounds computed by a from-scratch Hungarian LAP solver,
and the distributed run provably finds the same optimum as a sequential
solve.

Run:  python examples/masterworker_qap.py
"""

import numpy as np

from repro import GridTestbed
from repro.workloads.lap import QAPBranchAndBound, QAPInstance
from repro.workloads.masterworker import QAPMaster
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def main() -> None:
    instance = QAPInstance.random(7, seed=11)
    print("QAP instance: 7 facilities / 7 locations")
    sequential = QAPBranchAndBound(instance).solve()
    print(f"sequential solve: optimum={sequential.best_value:.1f} "
          f"({sequential.nodes_explored} nodes, "
          f"{sequential.laps_solved} LAPs)")

    testbed = GridTestbed(TestbedConfig(seed=7))
    # two Condor pools of reclaimable desktops plus a PBS cluster
    testbed.add_site(SiteSpec("pool-a", scheduler="condor", cpus=6, lrm_options={"owner_mtbf": 1500.0, "owner_busy_time": 120.0}))
    testbed.add_site(SiteSpec("pool-b", scheduler="condor", cpus=6, lrm_options={"owner_mtbf": 1500.0, "owner_busy_time": 120.0}))
    testbed.add_site(SiteSpec("cluster", scheduler="pbs", cpus=4))

    agent = testbed.add_agent(AgentSpec("metaneos"))
    agent.flood_glideins([s.contact for s in testbed.sites.values()],
                         per_site=4, walltime=10**6, idle_timeout=10**6)

    master = QAPMaster(agent, instance, time_per_lap=15.0)
    master.submit_workers(10)

    while not master.done and testbed.sim.now < 5 * 10**5:
        testbed.sim.run(until=testbed.sim.now + 500.0)

    assert master.done, "master did not drain"
    print(f"\ndistributed solve over {len(master.worker_ids)} workers:")
    print(f"  optimum          = {master.incumbent:.1f}")
    print(f"  permutation      = {master.best_perm}")
    print(f"  nodes expanded   = {master.nodes_explored}")
    print(f"  LAPs solved      = {master.laps_solved}")
    reclaims = sum(len(testbed.sim.trace.select(
        f"lrm:{s.lrm_host.name}", "owner_reclaim"))
        for s in testbed.sites.values())
    print(f"  workstation owner reclaims           = {reclaims}")
    print(f"  tasks requeued after worker eviction = "
          f"{master.tasks_requeued}")
    print(f"  simulated wall-clock = {testbed.sim.now:,.0f}s")

    assert master.incumbent == sequential.best_value
    assert instance.objective(np.array(master.best_perm)) == \
        master.incumbent
    print("\nOK: distributed optimum matches the sequential solver, "
          "despite worker preemptions.")


if __name__ == "__main__":
    main()
