"""Master-Worker over glideins: the Experience-1 machinery."""

import numpy as np
import pytest

from repro import GridTestbed
from repro.workloads.lap import QAPInstance
from repro.workloads.masterworker import QAPMaster, SyntheticMaster
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=41, cpus=8):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("wisc", scheduler="condor", cpus=cpus))
    return tb


def run_until_done(tb, master, cap, chunk=2000.0):
    """Advance the sim in chunks, stopping soon after the master drains
    (daemon loops would otherwise keep the event heap alive forever)."""
    while not master.done and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + chunk)
    tb.sim.run(until=tb.sim.now + chunk)    # let workers exit cleanly


def test_synthetic_master_completes_all_tasks():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=4, walltime=10**6, idle_timeout=10**6)
    master = SyntheticMaster(agent, n_tasks=20, mean_work=50.0)
    master.submit_workers(4)
    run_until_done(tb, master, cap=20000.0)
    assert master.done
    assert master.tasks_completed == 20
    stats = master.stats()
    assert stats["pending"] == 0


def test_workers_exit_when_pool_drained():
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=2, walltime=10**6, idle_timeout=10**6)
    master = SyntheticMaster(agent, n_tasks=6, mean_work=20.0)
    ids = master.submit_workers(2)
    run_until_done(tb, master, cap=20000.0)
    assert all(agent.queue.jobs[i].state == "COMPLETED" for i in ids)


def test_vacated_worker_tasks_requeued():
    """Kill a glidein mid-run: its leased task is recovered and finished
    by the surviving worker."""
    tb = make_tb(cpus=4)
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=2, walltime=10**6, idle_timeout=10**6)
    master = SyntheticMaster(agent, n_tasks=8, mean_work=200.0)
    master.submit_workers(2)
    tb.run(until=800.0)
    # hard-kill one glidein's startd (allocation revoked)
    startd = agent.glideins.live_startds[0]
    for proc in list(startd._procs):
        proc.kill(cause="test kill")
    startd.shutdown()
    run_until_done(tb, master, cap=60000.0)
    assert master.done
    assert master.tasks_completed == 8
    assert master.tasks_requeued >= 1


def test_qap_master_finds_optimum_distributed():
    """The distributed B&B finds the same optimum as the sequential
    solver -- with the real Gilmore-Lawler math running in workers."""
    from repro.workloads.lap import QAPBranchAndBound

    inst = QAPInstance.nugent5()
    sequential = QAPBranchAndBound(inst).solve()

    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=4, walltime=10**7, idle_timeout=10**7)
    master = QAPMaster(agent, inst, time_per_lap=1.0)
    master.submit_workers(4)
    run_until_done(tb, master, cap=10**6)
    assert master.done
    assert master.incumbent == sequential.best_value == 50.0
    assert master.best_perm is not None
    assert inst.objective(np.array(master.best_perm)) == 50.0
    assert master.laps_solved > 10


def test_qap_master_survives_preemption():
    """Condor-pool owners reclaim workstations mid-solve; the answer is
    still exact."""
    tb = GridTestbed(TestbedConfig(seed=43))
    tb.add_site(SiteSpec("wisc", scheduler="condor", cpus=4, lrm_options={"owner_mtbf": 600.0, "owner_busy_time": 60.0}))
    agent = tb.add_agent(AgentSpec("alice"))
    agent.glide_in("wisc-gk", count=3, walltime=10**7, idle_timeout=10**7)
    inst = QAPInstance.random(6, seed=9)
    master = QAPMaster(agent, inst, time_per_lap=2.0)
    master.submit_workers(3)
    run_until_done(tb, master, cap=2 * 10**6)
    assert master.done
    from repro.workloads.lap import QAPBranchAndBound

    assert master.incumbent == pytest.approx(
        QAPBranchAndBound(inst).solve().best_value)
