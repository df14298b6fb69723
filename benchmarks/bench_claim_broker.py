"""CLAIM-BROKER -- §4.4: resource discovery and scheduling strategies.

The paper sketches an escalation of brokering sophistication: a
user-supplied list, then "a personal resource broker ... [combining]
application requirements and resource status (obtained from MDS)",
ranked by "user preferences such as allocation cost and expected start
or completion time".

Scenario: heterogeneous sites (one busy, one idle-but-expensive, one
idle-and-cheap, one wrong architecture).  A batch of jobs with an
architecture requirement; brokers must (a) never pick the wrong arch,
(b) avoid the busy queue, (c) respect the cost preference when asked.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.broker import MatchmakingBroker, UserListBroker
from repro.workloads import saturate
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig

from _scenarios import drain, makespan

N_JOBS = 8
RUNTIME = 200.0


def build_tb(seed=704):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("busy", scheduler="pbs", cpus=8, allocation_cost=1.0))
    tb.add_site(SiteSpec("pricey", scheduler="pbs", cpus=8, allocation_cost=9.0))
    tb.add_site(SiteSpec("cheap", scheduler="pbs", cpus=8, allocation_cost=1.0))
    tb.add_site(SiteSpec("sparc", scheduler="pbs", cpus=8, arch="SPARC",
                allocation_cost=0.0))
    saturate(tb.sites["busy"].lrm, jobs=40, runtime=3000.0)
    return tb


def run_broker(kind: str):
    tb = build_tb()
    agent = tb.add_agent(AgentSpec("user"))
    if kind == "user list":
        agent.gridmanager.broker = UserListBroker(
            [s.contact for s in tb.sites.values()
             if s.arch == "INTEL"])      # the user curates arch by hand
    elif kind == "mds":
        agent.gridmanager.broker = MatchmakingBroker(
            agent.host, "mds", requirements='Arch == "INTEL"',
            rank="-EstimatedWait")
    elif kind == "mds+cost":
        agent.gridmanager.broker = MatchmakingBroker(
            agent.host, "mds", requirements='Arch == "INTEL"',
            rank="-EstimatedWait * 100.0 - AllocationCost")
    tb.run(until=150.0)       # MDS registrations warm up
    ids = [agent.submit(JobDescription(runtime=RUNTIME))
           for _ in range(N_JOBS)]
    drain(tb, lambda: all(agent.status(j).is_terminal for j in ids),
          cap=3 * 10**4, chunk=500.0)
    placement: dict[str, int] = {}
    cost = 0.0
    for jid in ids:
        site = agent.status(jid).resource.replace("-gk", "")
        placement[site] = placement.get(site, 0) + 1
        cost += tb.sites[site].allocation_cost
    done = sum(1 for j in ids if agent.status(j).is_complete)
    return {
        "broker": kind,
        "done": f"{done}/{N_JOBS}",
        "placement": ", ".join(f"{k}:{v}"
                               for k, v in sorted(placement.items())),
        "total cost": cost,
        "makespan (s)": makespan(agent, ids),
    }


def run_all():
    return [run_broker(k) for k in ("user list", "mds", "mds+cost")]


def test_claim_broker_strategies(benchmark, report):
    rows = benchmark.pedantic(run_all, iterations=1, rounds=1)
    report.table(
        "CLAIM-BROKER: 8 INTEL jobs over busy/pricey/cheap/SPARC sites",
        rows, order=["broker", "done", "placement", "total cost",
                     "makespan (s)"])
    by = {r["broker"]: r for r in rows}
    for row in rows:
        assert row["done"] == f"{N_JOBS}/{N_JOBS}"
        assert "sparc" not in row["placement"]    # requirement respected
    # MDS avoids the busy site entirely; the list broker cannot
    assert "busy" in by["user list"]["placement"]
    assert "busy" not in by["mds"]["placement"]
    assert by["mds"]["makespan (s)"] < by["user list"]["makespan (s)"]
    # the cost-ranked broker pays less than the wait-only broker
    assert by["mds+cost"]["total cost"] <= by["mds"]["total cost"]
